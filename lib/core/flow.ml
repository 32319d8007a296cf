module Csr = Ppet_digraph.Csr
module Dijkstra = Ppet_digraph.Dijkstra
module Prng = Ppet_digraph.Prng
module Obs = Ppet_obs.Obs

type result = {
  distance : float array;
  flow : float array;
  visits : int array;
  iterations : int;
}

let saturate csr (p : Params.t) rng =
  (match Params.validate p with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Flow.saturate: " ^ msg));
  Obs.span "flow.saturate" @@ fun () ->
  let n = Csr.n_nodes csr in
  let m = Csr.n_nets csr in
  let distance = Array.make m 1.0 in
  let flow = Array.make m 0.0 in
  let visits = Array.make n 0 in
  let iterations = ref 0 in
  if n > 0 && m > 0 then begin
    (* under-visited vertices, maintained as a compacting array *)
    let pending = Array.init n (fun v -> v) in
    let n_pending = ref n in
    let compact () =
      let k = ref 0 in
      for i = 0 to !n_pending - 1 do
        let v = pending.(i) in
        if visits.(v) <= p.Params.min_visit then begin
          pending.(!k) <- v;
          incr k
        end
      done;
      n_pending := !k
    in
    let tree_nets = ref 0 and settled = ref 0 and decreases = ref 0 in
    (* A net's flow and distance depend only on how many trees have
       used it. Entry [k] of [flow_at]/[distance_at] holds them after
       [k] hits: the same [+. delta] chain and the same [exp] as adding
       [delta] per tree net, so the same bits, computed once per hit
       count instead of once per tree net. *)
    let kernel = Dijkstra.Flat.create csr in
    let nets = Dijkstra.Flat.tree_nets kernel in
    let hits = Array.make m 0 in
    let flow_at = ref [| 0.0 |] and distance_at = ref [| 1.0 |] in
    let grow () =
      let have = Array.length !flow_at in
      let len = max 1024 (2 * have) in
      let f = Array.make len 0.0 and d = Array.make len 1.0 in
      Array.blit !flow_at 0 f 0 have;
      Array.blit !distance_at 0 d 0 have;
      for k = have to len - 1 do
        f.(k) <- f.(k - 1) +. p.Params.delta;
        d.(k) <- exp (p.Params.alpha *. f.(k) /. p.Params.capacity)
      done;
      flow_at := f;
      distance_at := d
    in
    while !n_pending > 0 && !iterations < p.Params.max_iterations do
      let src = pending.(Prng.int rng !n_pending) in
      visits.(src) <- visits.(src) + 1;
      (* the kernel adds each tree net's hit and its sinks' visits *)
      let count = Dijkstra.Flat.run kernel ~dist:distance ~hits ~visits ~src in
      tree_nets := !tree_nets + count;
      settled := !settled + Dijkstra.Flat.settled kernel;
      decreases := !decreases + Dijkstra.Flat.decreases kernel;
      (* a net gains at most one hit per tree *)
      if Array.length !distance_at <= !iterations + 1 then grow ();
      let distance_at = !distance_at in
      for i = 0 to count - 1 do
        let e = nets.(i) in
        distance.(e) <- distance_at.(hits.(e))
      done;
      incr iterations;
      compact ()
    done;
    let flow_at = !flow_at in
    for e = 0 to m - 1 do
      flow.(e) <- flow_at.(hits.(e))
    done;
    Obs.add Obs.Metric.Flow_tree_nets !tree_nets;
    Obs.add Obs.Metric.Flow_settled !settled;
    Obs.add Obs.Metric.Flow_decreases !decreases
  end;
  Obs.add Obs.Metric.Flow_iterations !iterations;
  { distance; flow; visits; iterations = !iterations }

let boundaries r =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun d -> Hashtbl.replace tbl d ()) r.distance;
  let ds = Hashtbl.fold (fun d () acc -> d :: acc) tbl [] in
  List.sort (fun a b -> compare b a) ds
