module Netgraph = Ppet_digraph.Netgraph
module Components = Ppet_digraph.Components
module Csr = Ppet_digraph.Csr
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Scc_budget = Ppet_retiming.Scc_budget

type cluster = {
  vertices : int array;
  input_count : int;
  oversize : bool;
  locked : bool;
}

type t = {
  clusters : cluster list;
  cluster_of : int array;
  removed : bool array;
  forced_kept : bool array;
  cuts_used : int array;
  boundaries_used : int;
}

let input_count_of c g ~inside vertices =
  let entering = Hashtbl.create 16 in
  let pis = ref 0 in
  Array.iter
    (fun v ->
      if (Circuit.node c v).Circuit.kind = Gate.Input then incr pis;
      Array.iter
        (fun e ->
          if not (inside (Netgraph.net_src g e)) then
            Hashtbl.replace entering e ())
        (Netgraph.in_nets g v))
    vertices;
  Hashtbl.length entering + !pis

let finalize n finished removed forced cuts boundaries_used =
  let clusters =
    List.sort
      (fun a b -> compare (b.input_count, b.vertices) (a.input_count, a.vertices))
      finished
  in
  let cluster_of = Array.make n (-1) in
  List.iteri
    (fun i cl -> Array.iter (fun v -> cluster_of.(v) <- i) cl.vertices)
    clusters;
  Ppet_obs.Obs.add Ppet_obs.Obs.Metric.Clusters_formed (List.length clusters);
  {
    clusters;
    cluster_of;
    removed;
    forced_kept = forced;
    cuts_used = cuts;
    boundaries_used;
  }

(* The splitting loop.

   The paper's formulation is a work queue of (piece, next boundary
   index): a synchronized breadth-first walk over boundary indices in
   which every live piece visits boundary t before any piece visits
   t+1, including the no-op visits where none of the piece's live nets
   reaches the boundary. Those no-op visits dominate on large circuits:
   each costs an O(piece) iota plus a restrict, repeated once per
   boundary value. (The queue form is kept as the test oracle.)

   This loop skips straight to each piece's next effective boundary.
   This is sound because pieces are vertex-disjoint and a net belongs to
   its source vertex, so the removed/forced state of a piece's out-nets
   changes only through the piece's own actions: the first index j >=
   next_b with boundaries.(j) <= max live distance is stable until the
   piece acts. The one piece of shared state is the per-SCC cut budget,
   which makes removal order observable; to replay the queue's order
   exactly, pieces carry a lineage label (the path of child indices in
   the split tree) and actions are drained from a min-heap keyed by
   (boundary index, label). Within a phase the queue processes pieces in
   label-lexicographic order (children inherit their parent's position,
   restrict emits them in id order), and two coexisting labels always
   differ at a common index, so the heap reproduces the exact global
   action sequence — same removed/forced/cuts, same clusters, same
   boundaries_used. iota only counts nets entering from outside the
   piece, which no removal changes, so it is evaluated once per piece. *)

(* Lexicographic label order. Beware: polymorphic compare on arrays
   orders by length first, which is NOT lexicographic. Coexisting labels
   are never prefix-related (a parent leaves the heap before its
   children enter), so the common-index comparison always decides. *)
let label_cmp (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let l = if la < lb then la else lb in
  let rec go i =
    if i = l then compare la lb
    else
      let d = compare a.(i) b.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

type piece = {
  verts : int array;
  act_b : int;          (* boundary index this piece acts at *)
  label : int array;    (* lineage in the split tree *)
  iv : int;             (* iota, constant over the piece's lifetime *)
}

let piece_before p q =
  p.act_b < q.act_b || (p.act_b = q.act_b && label_cmp p.label q.label < 0)

type pheap = { mutable data : piece array; mutable len : int }

let heap_push h pc =
  if h.len = Array.length h.data then begin
    let cap = if h.len = 0 then 16 else 2 * h.len in
    let data = Array.make cap pc in
    Array.blit h.data 0 data 0 h.len;
    h.data <- data
  end;
  let i = ref h.len in
  h.len <- h.len + 1;
  h.data.(!i) <- pc;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if piece_before h.data.(!i) h.data.(parent) then begin
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop h =
  let top = h.data.(0) in
  h.len <- h.len - 1;
  h.data.(0) <- h.data.(h.len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i in
    if l < h.len && piece_before h.data.(l) h.data.(!best) then best := l;
    if r < h.len && piece_before h.data.(r) h.data.(!best) then best := r;
    if !best <> !i then begin
      let tmp = h.data.(!best) in
      h.data.(!best) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := !best
    end
    else continue := false
  done;
  top

let make_group ?(locked = fun _ -> false) ~csr c g sb (flow : Flow.result)
    (p : Params.t) =
  Ppet_obs.Obs.span "cluster.make_group" @@ fun () ->
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  if Csr.n_nodes csr <> n || Csr.n_nets csr <> m then
    invalid_arg "Cluster.make_group: csr snapshot does not match graph";
  let ws = Csr.workspace csr in
  let removed = Array.make m false in
  let forced = Array.make m false in
  let cuts = Array.make (Scc_budget.n_components sb) 0 in
  let distance = flow.Flow.distance in
  let boundaries = Array.of_list (Flow.boundaries flow) in
  let n_bounds = Array.length boundaries in
  let beta = p.Params.beta in
  let out_off = csr.Csr.out_off and out_net = csr.Csr.out_net in
  let in_off = csr.Csr.in_off and in_net = csr.Csr.in_net in
  let net_src = csr.Csr.net_src in
  let iota verts =
    let stamp = Csr.fresh_stamp ws in
    let vmark = ws.Csr.vmark and nmark = ws.Csr.nmark in
    Array.iter (fun v -> vmark.(v) <- stamp) verts;
    let entering = ref 0 and pis = ref 0 in
    Array.iter
      (fun v ->
        if (Circuit.node c v).Circuit.kind = Gate.Input then incr pis;
        for i = in_off.(v) to in_off.(v + 1) - 1 do
          let e = in_net.(i) in
          if nmark.(e) <> stamp && vmark.(net_src.(e)) <> stamp then begin
            nmark.(e) <- stamp;
            incr entering
          end
        done)
      verts;
    !entering + !pis
  in
  let remove_at verts boundary =
    Array.iter
      (fun v ->
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          let e = out_net.(i) in
          if (not removed.(e)) && (not forced.(e)) && distance.(e) >= boundary
          then begin
            match Scc_budget.net_scc sb e with
            | None -> removed.(e) <- true
            | Some comp ->
              if cuts.(comp) < beta * Scc_budget.registers sb comp then begin
                cuts.(comp) <- cuts.(comp) + 1;
                removed.(e) <- true
              end
              else forced.(e) <- true
          end
        done)
      verts
  in
  (* Smallest index in [b0, n_bounds) whose boundary value some live net
     of the piece still reaches; n_bounds when none does. Boundaries are
     strictly descending, so binary search. *)
  let jump verts b0 =
    if b0 >= n_bounds then n_bounds
    else begin
      let maxd = ref neg_infinity in
      Array.iter
        (fun v ->
          for i = out_off.(v) to out_off.(v + 1) - 1 do
            let e = out_net.(i) in
            if (not removed.(e)) && (not forced.(e)) && distance.(e) > !maxd
            then maxd := distance.(e)
          done)
        verts;
      if boundaries.(b0) <= !maxd then b0
      else if boundaries.(n_bounds - 1) > !maxd then n_bounds
      else begin
        (* invariant: boundaries.(lo) > maxd >= boundaries.(hi) *)
        let lo = ref b0 and hi = ref (n_bounds - 1) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if boundaries.(mid) <= !maxd then hi := mid else lo := mid
        done;
        !hi
      end
    end
  in
  let keep e = not removed.(e) in
  let finished = ref [] in
  let boundaries_used = ref 0 in
  let heap = { data = [||]; len = 0 } in
  (* The queue walks every boundary in [b0, act_b), bumping
     boundaries_used at each no-op; collapsing the walk must apply the
     same bumps. *)
  let enqueue verts b0 label iv =
    let j = jump verts b0 in
    if j >= n_bounds then begin
      if b0 < n_bounds then boundaries_used := max !boundaries_used n_bounds;
      finished :=
        { vertices = verts; input_count = iv; oversize = true; locked = false }
        :: !finished
    end
    else heap_push heap { verts; act_b = j; label; iv }
  in
  let classify verts b0 label =
    let iv = iota verts in
    if iv <= p.Params.l_k then
      finished :=
        { vertices = verts; input_count = iv; oversize = false; locked = false }
        :: !finished
    else enqueue verts b0 label iv
  in
  let locked_vertices = ref [] in
  let free_vertices = ref [] in
  for v = n - 1 downto 0 do
    if locked v then locked_vertices := v :: !locked_vertices
    else free_vertices := v :: !free_vertices
  done;
  let locked_vertices = Array.of_list !locked_vertices in
  if Array.length locked_vertices > 0 then
    finished :=
      [ {
          vertices = locked_vertices;
          input_count = iota locked_vertices;
          oversize = false;
          locked = true;
        } ];
  let initial = Array.of_list !free_vertices in
  if n_bounds > 0 && Array.length initial > 0 then begin
    remove_at initial boundaries.(0);
    boundaries_used := 1
  end;
  Array.iteri
    (fun k piece -> classify piece 1 [| k |])
    (Components.restrict_csr csr ws ~vertices:initial ~keep);
  while heap.len > 0 do
    let pc = heap_pop heap in
    boundaries_used := max !boundaries_used (pc.act_b + 1);
    remove_at pc.verts boundaries.(pc.act_b);
    let pieces = Components.restrict_csr csr ws ~vertices:pc.verts ~keep in
    match pieces with
    | [| single |] when Array.length single = Array.length pc.verts ->
      (* stayed connected (removals bridged, or budget only forced);
         keep the label — it is still the same piece *)
      enqueue pc.verts (pc.act_b + 1) pc.label pc.iv
    | _ ->
      Array.iteri
        (fun i piece ->
          classify piece (pc.act_b + 1) (Array.append pc.label [| i |]))
        pieces
  done;
  finalize n !finished removed forced cuts !boundaries_used

let cut_nets t g = Components.cut_nets g t.cluster_of
