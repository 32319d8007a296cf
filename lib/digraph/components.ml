(* Iterates only the piece's own out-nets instead of every net of the
   graph. The clustering loop re-splits pieces thousands of times; with
   a global scan each split would cost O(|nets|), quadratic over a
   whole run. Only nets whose SOURCE lies inside connect: a net
   entering from outside joins nothing, even between its inside
   sinks. *)
let restrict_csr csr ws ~vertices ~keep =
  let k = Array.length vertices in
  let stamp = Csr.fresh_stamp ws in
  let vmark = ws.Csr.vmark and vaux = ws.Csr.vaux in
  for i = 0 to k - 1 do
    vmark.(vertices.(i)) <- stamp;
    vaux.(vertices.(i)) <- i
  done;
  let uf = Union_find.create k in
  let out_off = csr.Csr.out_off and out_net = csr.Csr.out_net in
  let sink_off = csr.Csr.sink_off and sink = csr.Csr.sink in
  for i = 0 to k - 1 do
    let v = vertices.(i) in
    for oi = out_off.(v) to out_off.(v + 1) - 1 do
      let e = out_net.(oi) in
      if keep e then
        for j = sink_off.(e) to sink_off.(e + 1) - 1 do
          let u = sink.(j) in
          if vmark.(u) = stamp then Union_find.union uf i vaux.(u)
        done
    done
  done;
  (* ids by first occurrence in piece-index order *)
  let root_id = Array.make (max k 1) (-1) in
  let id_of = Array.make (max k 1) (-1) in
  let count = ref 0 in
  for i = 0 to k - 1 do
    let r = Union_find.find uf i in
    if root_id.(r) < 0 then begin
      root_id.(r) <- !count;
      incr count
    end;
    id_of.(i) <- root_id.(r)
  done;
  let sizes = Array.make (max !count 1) 0 in
  for i = 0 to k - 1 do
    sizes.(id_of.(i)) <- sizes.(id_of.(i)) + 1
  done;
  let members = Array.init !count (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make (max !count 1) 0 in
  for i = 0 to k - 1 do
    let c = id_of.(i) in
    members.(c).(fill.(c)) <- vertices.(i);
    fill.(c) <- fill.(c) + 1
  done;
  members

let cut_nets g cluster_of =
  let acc = ref [] in
  Netgraph.iter_nets g (fun e ~src ~sinks ->
      let c = cluster_of.(src) in
      if Array.exists (fun v -> cluster_of.(v) <> c) sinks then
        acc := e :: !acc);
  List.rev !acc
