(* The hashed formulations of Saturate_Network (Table 3), Make_Group
   (Tables 4-7) and Assign_CBIT (Table 8): the paper's pseudo-code read
   literally, over the Netgraph queries, hashtables and the textbook
   Dijkstra/Heap. They are the differential oracles of the flat stages
   in Flow, Cluster and Assign, which must reproduce them exactly.
   Nothing in the library uses them. *)

module Netgraph = Ppet_digraph.Netgraph
module Dijkstra = Ppet_digraph.Dijkstra
module Union_find = Ppet_digraph.Union_find
module Components = Ppet_digraph.Components
module Prng = Ppet_digraph.Prng
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Scc_budget = Ppet_retiming.Scc_budget
module Obs = Ppet_obs.Obs
module Params = Ppet_core.Params
module Flow = Ppet_core.Flow
module Cluster = Ppet_core.Cluster
module Assign = Ppet_core.Assign

(* ------------------------------------------------------------------ *)
(* Saturate_Network: one Dijkstra.run_into tree per iteration, its flow
   added net by net. Records the same flow counters as Flow.saturate. *)

let saturate g (p : Params.t) rng : Flow.result =
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  let distance = Array.make m 1.0 in
  let flow = Array.make m 0.0 in
  let visits = Array.make n 0 in
  let iterations = ref 0 in
  if n > 0 && m > 0 then begin
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
    let ws = Dijkstra.workspace g in
    while !n_pending > 0 && !iterations < p.Params.max_iterations do
      let src = pending.(Prng.int rng !n_pending) in
      visits.(src) <- visits.(src) + 1;
      let tree = Dijkstra.run_into ws g ~dist:(fun e -> distance.(e)) ~src in
      tree_nets := !tree_nets + Array.length tree.Dijkstra.tree_nets;
      decreases := !decreases + tree.Dijkstra.decreases;
      for v = 0 to n - 1 do
        if tree.Dijkstra.dist.(v) < infinity then incr settled
      done;
      Array.iter
        (fun e ->
          flow.(e) <- flow.(e) +. p.Params.delta;
          distance.(e) <- exp (p.Params.alpha *. flow.(e) /. p.Params.capacity);
          Array.iter
            (fun v -> visits.(v) <- visits.(v) + 1)
            (Netgraph.net_sinks g e))
        tree.Dijkstra.tree_nets;
      incr iterations;
      compact ()
    done;
    Obs.add Obs.Metric.Flow_tree_nets !tree_nets;
    Obs.add Obs.Metric.Flow_settled !settled;
    Obs.add Obs.Metric.Flow_decreases !decreases
  end;
  Obs.add Obs.Metric.Flow_iterations !iterations;
  { Flow.distance; flow; visits; iterations = !iterations }

(* ------------------------------------------------------------------ *)
(* Make_Group: a FIFO of (piece, next boundary index), every piece
   visiting every boundary value in turn, split by a whole-graph
   restrict. *)

(* Weak components of the subgraph induced by [vertices], through kept
   nets whose source lies inside, by a scan of every net of [g]. Ids by
   first vertex in [vertices] order. *)
let restrict g ~vertices ~keep =
  let inside = Hashtbl.create (Array.length vertices) in
  Array.iteri (fun i v -> Hashtbl.replace inside v i) vertices;
  let k = Array.length vertices in
  let uf = Union_find.create k in
  Netgraph.iter_nets g (fun e ~src ~sinks ->
      if keep e then
        match Hashtbl.find_opt inside src with
        | None -> ()
        | Some i ->
          Array.iter
            (fun v ->
              match Hashtbl.find_opt inside v with
              | Some j -> Union_find.union uf i j
              | None -> ())
            sinks);
  let root_to_id = Hashtbl.create 16 in
  let id_of = Array.make k 0 in
  let count = ref 0 in
  for i = 0 to k - 1 do
    let r = Union_find.find uf i in
    (match Hashtbl.find_opt root_to_id r with
     | Some id -> id_of.(i) <- id
     | None ->
       Hashtbl.add root_to_id r !count;
       id_of.(i) <- !count;
       incr count)
  done;
  let members = Array.make !count [] in
  for i = k - 1 downto 0 do
    members.(id_of.(i)) <- vertices.(i) :: members.(id_of.(i))
  done;
  Array.map Array.of_list members

(* Remove the nets of [vertices] whose distance reaches [boundary],
   honouring the per-SCC budget: a removal inside component comp is
   allowed only while c(comp) < beta * f(comp); beyond that the net is
   forced kept forever (Table 7, STEP 2.1.2.1). *)
let remove_at (removed, forced, cuts) g sb beta ~distance vertices boundary =
  Array.iter
    (fun v ->
      Array.iter
        (fun e ->
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
          end)
        (Netgraph.out_nets g v))
    vertices

let make_group ?(locked = fun _ -> false) c g sb (flow : Flow.result)
    (p : Params.t) : Cluster.t =
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  let removed = Array.make m false in
  let forced = Array.make m false in
  let cuts = Array.make (Scc_budget.n_components sb) 0 in
  let st = (removed, forced, cuts) in
  let distance = flow.Flow.distance in
  let boundaries = Array.of_list (Flow.boundaries flow) in
  let n_bounds = Array.length boundaries in
  let iota vertices =
    let tbl = Hashtbl.create (Array.length vertices) in
    Array.iter (fun v -> Hashtbl.replace tbl v ()) vertices;
    Cluster.input_count_of c g ~inside:(Hashtbl.mem tbl) vertices
  in
  let keep e = not removed.(e) in
  let finished = ref [] in
  let queue = Queue.create () in
  let boundaries_used = ref 0 in
  (* locked vertices form one untouchable cluster, set aside up front *)
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
          Cluster.vertices = locked_vertices;
          input_count = iota locked_vertices;
          oversize = false;
          locked = true;
        } ];
  let initial = Array.of_list !free_vertices in
  if n_bounds > 0 && Array.length initial > 0 then begin
    remove_at st g sb p.Params.beta ~distance initial boundaries.(0);
    boundaries_used := 1
  end;
  Array.iter
    (fun piece -> Queue.add (piece, 1) queue)
    (restrict g ~vertices:initial ~keep);
  while not (Queue.is_empty queue) do
    let vertices, next_b = Queue.pop queue in
    let iota_v = iota vertices in
    let cluster oversize =
      { Cluster.vertices; input_count = iota_v; oversize; locked = false }
    in
    if iota_v <= p.Params.l_k then finished := cluster false :: !finished
    else if next_b >= n_bounds then finished := cluster true :: !finished
    else begin
      boundaries_used := max !boundaries_used (next_b + 1);
      remove_at st g sb p.Params.beta ~distance vertices boundaries.(next_b);
      match restrict g ~vertices ~keep with
      | [| single |] when Array.length single = Array.length vertices ->
        (* no net could be removed at this boundary; go deeper *)
        Queue.add (vertices, next_b + 1) queue
      | pieces ->
        Array.iter (fun piece -> Queue.add (piece, next_b + 1) queue) pieces
    end
  done;
  let clusters =
    List.sort
      (fun (a : Cluster.cluster) (b : Cluster.cluster) ->
        compare
          (b.Cluster.input_count, b.Cluster.vertices)
          (a.Cluster.input_count, a.Cluster.vertices))
      !finished
  in
  let cluster_of = Array.make n (-1) in
  List.iteri
    (fun i cl -> Array.iter (fun v -> cluster_of.(v) <- i) cl.Cluster.vertices)
    clusters;
  {
    Cluster.clusters;
    cluster_of;
    removed;
    forced_kept = forced;
    cuts_used = cuts;
    boundaries_used = !boundaries_used;
  }

(* ------------------------------------------------------------------ *)
(* Assign_CBIT: live clusters as membership and entering-net
   hashtables, every live cluster rescanned for the maximum iota, and
   the merge with every live unlocked cluster scored by building the
   union's table. *)

type live = {
  mutable members : int list;
  member_set : (int, unit) Hashtbl.t;
  mutable entering : (int, unit) Hashtbl.t;  (* nets with source outside *)
  mutable n_pis : int;
  mutable from : int;   (* Make_Group clusters absorbed *)
  was_oversize : bool;
  was_locked : bool;
  mutable dead : bool;
}

let live_iota l = Hashtbl.length l.entering + l.n_pis

let live_of_cluster c g (cl : Cluster.cluster) =
  let member_set = Hashtbl.create (Array.length cl.Cluster.vertices) in
  Array.iter (fun v -> Hashtbl.replace member_set v ()) cl.Cluster.vertices;
  let entering = Hashtbl.create 16 in
  let n_pis = ref 0 in
  Array.iter
    (fun v ->
      if (Circuit.node c v).Circuit.kind = Gate.Input then incr n_pis;
      Array.iter
        (fun e ->
          if not (Hashtbl.mem member_set (Netgraph.net_src g e)) then
            Hashtbl.replace entering e ())
        (Netgraph.in_nets g v))
    cl.Cluster.vertices;
  {
    members = Array.to_list cl.Cluster.vertices;
    member_set;
    entering;
    n_pis = !n_pis;
    from = 1;
    was_oversize = cl.Cluster.oversize;
    was_locked = cl.Cluster.locked;
    dead = false;
  }

(* iota of the union, and how many entering nets the merge removes *)
let score_merge g a b =
  let union_entering = Hashtbl.create 16 in
  let scan src_tbl other e =
    let src = Netgraph.net_src g e in
    if not (Hashtbl.mem other src || Hashtbl.mem src_tbl src) then
      Hashtbl.replace union_entering e ()
  in
  Hashtbl.iter (fun e () -> scan a.member_set b.member_set e) a.entering;
  Hashtbl.iter (fun e () -> scan b.member_set a.member_set e) b.entering;
  let iota = Hashtbl.length union_entering + a.n_pis + b.n_pis in
  let removed =
    Hashtbl.length a.entering + Hashtbl.length b.entering
    - Hashtbl.length union_entering
  in
  (iota, removed)

(* grow a by b; b dies *)
let merge_into g a b =
  let union_entering = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace a.member_set v ()) b.members;
  let keep e =
    if not (Hashtbl.mem a.member_set (Netgraph.net_src g e)) then
      Hashtbl.replace union_entering e ()
  in
  Hashtbl.iter (fun e () -> keep e) a.entering;
  Hashtbl.iter (fun e () -> keep e) b.entering;
  a.members <- List.rev_append b.members a.members;
  a.entering <- union_entering;
  a.n_pis <- a.n_pis + b.n_pis;
  a.from <- a.from + b.from;
  b.dead <- true

let assign c g (clustering : Cluster.t) (p : Params.t) : Assign.t =
  let live =
    Array.of_list (List.map (live_of_cluster c g) clustering.Cluster.clusters)
  in
  let n = Array.length live in
  let merges = ref 0 in
  let partitions = ref [] in
  let candidates_for exclude =
    let alive = ref [] in
    for i = n - 1 downto 0 do
      if (not live.(i).dead) && (not live.(i).was_locked) && i <> exclude
      then alive := i :: !alive
    done;
    !alive
  in
  let extract_max () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if not live.(i).dead then
        if !best < 0 || live_iota live.(i) > live_iota live.(!best) then
          best := i
    done;
    if !best < 0 then None else Some !best
  in
  let rec outer () =
    match extract_max () with
    | None -> ()
    | Some oi ->
      let o = live.(oi) in
      o.dead <- true;
      let continue = ref true in
      while (not o.was_locked) && !continue && live_iota o < p.Params.l_k do
        let best = ref None in
        List.iter
          (fun gi ->
            let iota, removed = score_merge g o live.(gi) in
            if iota <= p.Params.l_k then begin
              let gain = p.Params.l_k - iota in
              match !best with
              | Some (bg, br, _) when (bg, br) >= (gain, removed) -> ()
              | Some _ | None -> best := Some (gain, removed, gi)
            end)
          (candidates_for oi);
        match !best with
        | None -> continue := false
        | Some (_, _, gi) ->
          merge_into g o live.(gi);
          incr merges
      done;
      let vertices = Array.of_list o.members in
      Array.sort compare vertices;
      partitions :=
        {
          Assign.vertices;
          input_count = live_iota o;
          merged_from = o.from;
          oversize = o.was_oversize;
          locked = o.was_locked;
        }
        :: !partitions;
      outer ()
  in
  outer ();
  let partitions =
    List.sort
      (fun (a : Assign.partition) (b : Assign.partition) ->
        match compare b.Assign.input_count a.Assign.input_count with
        | 0 -> compare a.Assign.vertices b.Assign.vertices
        | c -> c)
      !partitions
  in
  let partition_of = Array.make (Netgraph.n_nodes g) (-1) in
  List.iteri
    (fun i pt -> Array.iter (fun v -> partition_of.(v) <- i) pt.Assign.vertices)
    partitions;
  {
    Assign.partitions;
    partition_of;
    cut_nets = Components.cut_nets g partition_of;
    merges = !merges;
  }

(* The three stages chained as Merced.run chains them for the flow
   partitioner: saturation, clustering, assignment. *)
let partition c (p : Params.t) =
  let g = Ppet_netlist.To_graph.partition_view c in
  let rng = Prng.create p.Params.seed in
  let flow = saturate g p rng in
  let clustering = make_group c g (Scc_budget.create c g) flow p in
  assign c g clustering p
