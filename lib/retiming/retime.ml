type outcome =
  | Feasible of int array
  | Infeasible of int list

let pinned g v =
  match g.Rgraph.kinds.(v) with
  | Rgraph.Vpi _ | Rgraph.Vhost -> true
  | Rgraph.Vgate _ -> false

(* Difference constraints rho(u) - rho(v) <= weight(e) - require(e) per
   edge e = u -> v, plus rho(p) = 0 for pinned vertices, solved by
   queue-based Bellman-Ford (SPFA). A vertex relaxed >= n times lies on a
   negative cycle; we walk predecessor links to extract it. *)
let solve g ~require =
  Ppet_obs.Obs.span "retime.solve" @@ fun () ->
  let n = Rgraph.n_vertices g in
  (* constraint arcs: (from, to, length) meaning rho(to) <= rho(from) + len *)
  let arcs = ref [] in
  Array.iteri
    (fun i (e : Rgraph.edge) ->
      let r = require i in
      if r < 0 then invalid_arg "Retime.solve: negative requirement";
      arcs := (e.Rgraph.head, e.Rgraph.tail, e.Rgraph.weight - r) :: !arcs)
    g.Rgraph.edges;
  (* pin all PIs and the host together at equal lag *)
  let first_pinned = ref (-1) in
  for v = 0 to n - 1 do
    if pinned g v then begin
      if !first_pinned < 0 then first_pinned := v
      else begin
        arcs := (!first_pinned, v, 0) :: (v, !first_pinned, 0) :: !arcs
      end
    end
  done;
  let out = Array.make n [] in
  List.iter (fun (u, v, l) -> out.(u) <- (v, l) :: out.(u)) !arcs;
  let dist = Array.make n 0 in
  let pred = Array.make n (-1) in
  let relax_count = Array.make n 0 in
  let in_queue = Array.make n true in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    Queue.add v queue
  done;
  let neg_vertex = ref (-1) in
  let relaxations = ref 0 in
  (try
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       in_queue.(u) <- false;
       List.iter
         (fun (v, l) ->
           if dist.(u) + l < dist.(v) then begin
             incr relaxations;
             dist.(v) <- dist.(u) + l;
             pred.(v) <- u;
             relax_count.(v) <- relax_count.(v) + 1;
             if relax_count.(v) > n then begin
               neg_vertex := v;
               raise Exit
             end;
             if not in_queue.(v) then begin
               in_queue.(v) <- true;
               Queue.add v queue
             end
           end)
         out.(u)
     done
   with Exit -> ());
  Ppet_obs.Obs.add Ppet_obs.Obs.Metric.Bf_relaxations !relaxations;
  if !neg_vertex >= 0 then begin
    (* step back n times to be sure we are on the cycle, then collect it *)
    let v = ref !neg_vertex in
    for _ = 1 to n do
      v := pred.(!v)
    done;
    let cycle = ref [] in
    let cur = ref !v in
    let continue = ref true in
    while !continue do
      cycle := !cur :: !cycle;
      cur := pred.(!cur);
      if !cur = !v then continue := false
    done;
    Infeasible !cycle
  end
  else begin
    (* normalise so pinned vertices sit at lag 0 *)
    let shift = if !first_pinned >= 0 then dist.(!first_pinned) else 0 in
    Feasible (Array.map (fun d -> d - shift) dist)
  end

(* ------------------------------------------------------------------ *)
(* Flat incremental solver.

   [solve] above rebuilds the constraint graph as linked tuple lists and
   a boxed queue on every call; the requirement-drop loop of the
   pipeline re-solves the same graph dozens of times, so that
   representation dominates the retime stage. [Solver.create] builds
   the constraint arcs once as int CSR arrays; [Solver.run] reuses them
   and preallocated dist/pred/queue scratch across every re-solve.

   Equivalence contract: a cold [Solver.run] relaxes from the all-zero
   start exactly like [solve] — same initial queue (every vertex,
   ascending), same FIFO discipline, same per-vertex arc order (the
   vertex's incident edges in ascending edge index, then the pinned-tie
   arcs). On feasible systems the fixpoint is the shortest-path
   distances from the implicit super-source, which no relaxation order
   can change, so both entry points return the identical rho. On
   infeasible systems both report a genuine over-constrained cycle, but
   not necessarily the same one: the flat solver detects negative
   cycles early (pred-forest sweep below) where [solve] burns
   Theta(n * m) reaching its relax-count cutoff. *)

module Solver = struct
  type t = {
    g : Rgraph.t;
    n : int;
    first_pinned : int;
    arc_off : int array;   (* n+1: constraint arcs grouped by source *)
    arc_to : int array;
    arc_edge : int array;  (* rgraph edge behind the arc, -1 = pinned tie *)
    edge_arc : int array;  (* the inverse: arc of each rgraph edge *)
    arc_len : int array;   (* weight - require, refreshed per run *)
    dist : int array;
    pred : int array;
    relax_count : int array;
    in_queue : bool array;
    queue : int array;     (* ring buffer, capacity n+1 *)
    color : int array;     (* scratch for the pred-forest cycle sweep *)
    mutable qhead : int;   (* the queue an aborted run left *)
    mutable qtail : int;
    mutable scanning : int;  (* vertex whose arcs the cutoff interrupted *)
    mutable tripped : int;   (* vertex whose relax count crossed n *)
    mutable aborted : bool;
  }

  let create g =
    let n = Rgraph.n_vertices g in
    let n_edges = Array.length g.Rgraph.edges in
    let first_pinned = ref (-1) in
    let n_pinned = ref 0 in
    for v = 0 to n - 1 do
      if pinned g v then begin
        if !first_pinned < 0 then first_pinned := v;
        incr n_pinned
      end
    done;
    let pinned_arcs = if !n_pinned >= 2 then 2 * (!n_pinned - 1) else 0 in
    let n_arcs = n_edges + pinned_arcs in
    let cnt = Array.make n 0 in
    Array.iter
      (fun (e : Rgraph.edge) -> cnt.(e.Rgraph.head) <- cnt.(e.Rgraph.head) + 1)
      g.Rgraph.edges;
    if !n_pinned >= 2 then begin
      cnt.(!first_pinned) <- cnt.(!first_pinned) + (!n_pinned - 1);
      for v = 0 to n - 1 do
        if pinned g v && v <> !first_pinned then cnt.(v) <- cnt.(v) + 1
      done
    end;
    let arc_off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      arc_off.(v + 1) <- arc_off.(v) + cnt.(v)
    done;
    let arc_to = Array.make (max n_arcs 1) 0 in
    let arc_edge = Array.make (max n_arcs 1) (-1) in
    let edge_arc = Array.make n_edges 0 in
    let fill = Array.make n 0 in
    let put u target edge =
      let i = arc_off.(u) + fill.(u) in
      arc_to.(i) <- target;
      arc_edge.(i) <- edge;
      if edge >= 0 then edge_arc.(edge) <- i;
      fill.(u) <- fill.(u) + 1
    in
    (* edge arcs first (ascending edge index per source) ... *)
    Array.iteri
      (fun i (e : Rgraph.edge) -> put e.Rgraph.head e.Rgraph.tail i)
      g.Rgraph.edges;
    (* ... then the pinned ties, ascending *)
    if !n_pinned >= 2 then
      for v = 0 to n - 1 do
        if pinned g v && v <> !first_pinned then begin
          put !first_pinned v (-1);
          put v !first_pinned (-1)
        end
      done;
    {
      g;
      n;
      first_pinned = !first_pinned;
      arc_off;
      arc_to;
      arc_edge;
      edge_arc;
      arc_len = Array.make (max n_arcs 1) 0;
      dist = Array.make (max n 1) 0;
      pred = Array.make (max n 1) (-1);
      relax_count = Array.make (max n 1) 0;
      in_queue = Array.make (max n 1) false;
      queue = Array.make (n + 1) 0;
      color = Array.make (max n 1) 0;
      qhead = 0;
      qtail = 0;
      scanning = -1;
      tripped = -1;
      aborted = false;
    }

  let refresh_lengths s ~require =
    let n_arcs = s.arc_off.(s.n) in
    for i = 0 to n_arcs - 1 do
      let e = s.arc_edge.(i) in
      if e < 0 then s.arc_len.(i) <- 0
      else begin
        let r = require e in
        if r < 0 then invalid_arg "Retime.solve: negative requirement";
        s.arc_len.(i) <- s.g.Rgraph.edges.(e).Rgraph.weight - r
      end
    done

  (* collect the cycle through [w], which must lie on a pred cycle *)
  let collect_cycle s w =
    let cycle = ref [] in
    let cur = ref w in
    let continue = ref true in
    while !continue do
      cycle := !cur :: !cycle;
      cur := s.pred.(!cur);
      if !cur = w then continue := false
    done;
    !cycle

  let extract_cycle s neg_vertex =
    let v = ref neg_vertex in
    for _ = 1 to s.n do
      v := s.pred.(!v)
    done;
    collect_cycle s !v

  (* Early negative-cycle detection: every predecessor assignment was a
     strict improvement, so summing [dist] drops around any cycle of the
     pred forest shows its total length is negative — a cycle in the
     pred graph IS a negative constraint cycle. Sweeping the forest costs
     O(n) (each vertex colored once), so running it every ~n relaxations
     detects infeasibility after O(n + m) work where the bare
     [relax_count > n] cutoff needs O(n * m). Vertices are scanned in
     ascending order, keeping the reported cycle deterministic. *)
  let pred_cycle s =
    let color = s.color and pred = s.pred in
    let n = s.n in
    Array.fill color 0 n 0;
    let found = ref (-1) in
    let v0 = ref 0 in
    while !found < 0 && !v0 < n do
      if color.(!v0) = 0 then begin
        (* walk the pred chain: 1 = on this path, 2 = exhausted *)
        let u = ref !v0 in
        while !u >= 0 && color.(!u) = 0 do
          color.(!u) <- 1;
          u := pred.(!u)
        done;
        if !u >= 0 && color.(!u) = 1 then found := !u
        else begin
          let w = ref !v0 in
          while !w >= 0 && color.(!w) = 1 do
            color.(!w) <- 2;
            w := pred.(!w)
          done
        end
      end;
      incr v0
    done;
    !found

  (* Every cycle of the pred forest, not just the first: cycles are
     vertex-disjoint (each vertex has one pred), and by the argument
     above each is a genuine negative constraint cycle, so a caller
     dropping one requirement per cycle can retire them all from a
     single aborted run instead of paying a full re-solve per cycle. *)
  let pred_cycles_all s =
    let color = s.color and pred = s.pred in
    let n = s.n in
    Array.fill color 0 n 0;
    let cycles = ref [] in
    for v0 = 0 to n - 1 do
      if color.(v0) = 0 then begin
        let u = ref v0 in
        while !u >= 0 && color.(!u) = 0 do
          color.(!u) <- 1;
          u := pred.(!u)
        done;
        if !u >= 0 && color.(!u) = 1 then
          cycles := collect_cycle s !u :: !cycles;
        let w = ref v0 in
        while !w >= 0 && color.(!w) = 1 do
          color.(!w) <- 2;
          w := pred.(!w)
        done
      end
    done;
    List.rev !cycles

  type raw =
    | Rfeasible of int array
    | Rsweep of int      (* vertex on a pred cycle, found by the sweep *)
    | Rcutoff of int     (* vertex whose relax count crossed n *)

  let enqueue s u =
    s.in_queue.(u) <- true;
    s.queue.(s.qtail) <- u;
    s.qtail <- (if s.qtail = s.n then 0 else s.qtail + 1)

  (* some constraint arc leaving [u] is violated *)
  let violated s u =
    let du = s.dist.(u) in
    let i = ref s.arc_off.(u) and hi = s.arc_off.(u + 1) in
    while !i < hi && du + s.arc_len.(!i) >= s.dist.(s.arc_to.(!i)) do
      incr i
    done;
    !i < hi

  (* Queue-based relaxation from the current [dist] and queue. On an
     abort the labels, the queue, the vertex whose arc scan was cut
     short and the vertex whose count tripped stay in [s] for
     [resume]. *)
  let relax s =
    let n = s.n in
    let dist = s.dist and pred = s.pred in
    let relax_count = s.relax_count and in_queue = s.in_queue in
    let queue = s.queue in
    let arc_off = s.arc_off and arc_to = s.arc_to and arc_len = s.arc_len in
    let qcap = n + 1 in
    let qhead = ref s.qhead and qtail = ref s.qtail in
    Array.fill pred 0 n (-1);
    Array.fill relax_count 0 n 0;
    s.scanning <- -1;
    s.tripped <- -1;
    let neg_vertex = ref (-1) in
    let cycle_vertex = ref (-1) in
    let relaxations = ref 0 in
    let next_sweep = ref n in
    (* indices below stay in range by construction ([arc_to] targets and
       queue entries are vertices < n, arc indices < arc_off.(n)), so the
       hot loop reads unchecked; the queue holds each vertex at most once
       (the [in_queue] guard), so head only meets tail when empty *)
    (try
       while !qhead <> !qtail do
         if !relaxations >= !next_sweep then begin
           next_sweep := !relaxations + n;
           let w = pred_cycle s in
           if w >= 0 then begin
             cycle_vertex := w;
             raise Exit
           end
         end;
         let u = Array.unsafe_get queue !qhead in
         let h = !qhead + 1 in
         qhead := if h = qcap then 0 else h;
         Array.unsafe_set in_queue u false;
         let du = Array.unsafe_get dist u in
         let hi = Array.unsafe_get arc_off (u + 1) in
         for i = Array.unsafe_get arc_off u to hi - 1 do
           let v = Array.unsafe_get arc_to i in
           let cand = du + Array.unsafe_get arc_len i in
           if cand < Array.unsafe_get dist v then begin
             incr relaxations;
             Array.unsafe_set dist v cand;
             Array.unsafe_set pred v u;
             let rc = Array.unsafe_get relax_count v + 1 in
             Array.unsafe_set relax_count v rc;
             if rc > n then begin
               neg_vertex := v;
               s.scanning <- u;
               raise Exit
             end;
             if not (Array.unsafe_get in_queue v) then begin
               Array.unsafe_set in_queue v true;
               Array.unsafe_set queue !qtail v;
               let t = !qtail + 1 in
               qtail := if t = qcap then 0 else t
             end
           end
         done
       done
     with Exit -> ());
    s.qhead <- !qhead;
    s.qtail <- !qtail;
    s.tripped <- !neg_vertex;
    Ppet_obs.Obs.add Ppet_obs.Obs.Metric.Bf_relaxations !relaxations;
    if !cycle_vertex >= 0 then begin
      s.aborted <- true;
      Rsweep !cycle_vertex
    end
    else if !neg_vertex >= 0 then begin
      s.aborted <- true;
      Rcutoff !neg_vertex
    end
    else begin
      s.aborted <- false;
      let shift = if s.first_pinned >= 0 then dist.(s.first_pinned) else 0 in
      Rfeasible (Array.init n (fun v -> dist.(v) - shift))
    end

  let run_raw ?warm s ~require =
    Ppet_obs.Obs.span "retime.solve" @@ fun () ->
    let n = s.n in
    refresh_lengths s ~require;
    s.qhead <- 0;
    s.qtail <- 0;
    (match warm with
     | None ->
       (* cold: the all-zero potential, every vertex queued — the exact
          start state of the list-based solver *)
       Array.fill s.dist 0 n 0;
       for v = 0 to n - 1 do
         enqueue s v
       done
     | Some potential ->
       (* warm: start from any potential — a previously feasible one or
          the label state of an aborted run — and queue only the sources
          of violated constraints. Sound (any relaxation fixpoint
          satisfies every constraint; the pred forest is rebuilt from
          scratch, so a predecessor cycle still certifies an
          over-constrained loop of the current system) but NOT
          canonical: a warm feasible answer is whatever fixpoint the
          start point leads to, so only cold runs are used where
          the canonical result matters. *)
       if Array.length potential <> n then
         invalid_arg "Retime.Solver.run: warm potential of wrong length";
       Array.blit potential 0 s.dist 0 n;
       Array.fill s.in_queue 0 n false;
       for u = 0 to n - 1 do
         if violated s u then enqueue s u
       done);
    relax s

  let run ?warm s ~require =
    match run_raw ?warm s ~require with
    | Rfeasible rho -> Feasible rho
    | Rsweep w -> Infeasible (collect_cycle s w)
    | Rcutoff v -> Infeasible (extract_cycle s v)

  let result s = function
    | Rfeasible rho -> Ok rho
    | Rsweep _ | Rcutoff _ -> Error (pred_cycles_all s)

  let run_cycles ?warm s ~require = result s (run_raw ?warm s ~require)

  let release s v =
    let outs = s.g.Rgraph.out_edges.(v) in
    for k = 0 to Array.length outs - 1 do
      let e = outs.(k) in
      let a = s.edge_arc.(e) in
      if s.arc_len.(a) >= s.g.Rgraph.edges.(e).Rgraph.weight then
        invalid_arg "Retime.Solver.release: no requirement to release";
      s.arc_len.(a) <- s.arc_len.(a) + 1
    done

  (* The warm start from the aborted labels, without scanning every
     arc: a vertex outside the aborted queue had every arc satisfied
     (relaxation re-queues a vertex whenever its label drops), except
     the one whose scan the cutoff interrupted and the one whose label
     it had just lowered; and releasing a requirement only lengthens
     arcs. So the vertices with a violated arc are those candidates that
     still have one, and queued in ascending order they are exactly the
     queue the warm start above would build. *)
  let resume s =
    if not s.aborted then invalid_arg "Retime.Solver.resume: no aborted run";
    Ppet_obs.Obs.span "retime.solve" @@ fun () ->
    if s.scanning >= 0 then s.in_queue.(s.scanning) <- true;
    if s.tripped >= 0 then s.in_queue.(s.tripped) <- true;
    s.qhead <- 0;
    s.qtail <- 0;
    for u = 0 to s.n - 1 do
      if s.in_queue.(u) then begin
        if violated s u then enqueue s u else s.in_queue.(u) <- false
      end
    done;
    result s (relax s)

  let potentials s = Array.sub s.dist 0 s.n
end

let retimed_weight g rho e =
  let edge = g.Rgraph.edges.(e) in
  edge.Rgraph.weight + rho.(edge.Rgraph.head) - rho.(edge.Rgraph.tail)

let is_legal g rho =
  let n = Rgraph.n_vertices g in
  Array.length rho = n
  && (let ok = ref true in
      for v = 0 to n - 1 do
        if pinned g v && rho.(v) <> 0 then ok := false
      done;
      Array.iteri
        (fun i _ -> if retimed_weight g rho i < 0 then ok := false)
        g.Rgraph.edges;
      !ok)

let gate_kind g v =
  match g.Rgraph.kinds.(v) with
  | Rgraph.Vgate (k, _) -> Some k
  | Rgraph.Vpi _ | Rgraph.Vhost -> None

(* Pop the register nearest the head of the edge (last of the tail-first
   init list). *)
let pop_head (e : Rgraph.edge) =
  match List.rev e.Rgraph.inits with
  | [] -> invalid_arg "Retime: popping an empty edge"
  | v :: rest ->
    e.Rgraph.inits <- List.rev rest;
    e.Rgraph.weight <- e.Rgraph.weight - 1;
    v

let pop_tail (e : Rgraph.edge) =
  match e.Rgraph.inits with
  | [] -> invalid_arg "Retime: popping an empty edge"
  | v :: rest ->
    e.Rgraph.inits <- rest;
    e.Rgraph.weight <- e.Rgraph.weight - 1;
    v

let push_tail (e : Rgraph.edge) v =
  e.Rgraph.inits <- v :: e.Rgraph.inits;
  e.Rgraph.weight <- e.Rgraph.weight + 1

let push_head (e : Rgraph.edge) v =
  e.Rgraph.inits <- e.Rgraph.inits @ [ v ];
  e.Rgraph.weight <- e.Rgraph.weight + 1

(* Elementary moves, each a dataflow firing: a forward move of [v]
   takes one register from the head of every in-edge and puts one on
   the tail of every out-edge; a backward move takes one from the tail
   of every out-edge and puts one on the head of every in-edge. Each
   edge is a FIFO, each firing computes its output from the values it
   takes, and a firing that is ready stays ready until it fires (an
   edge read at both ends only loses registers, and legality leaves it
   enough for both). The values on every edge, and which moves can be
   made at all, are therefore the same in every order the moves are
   made in — so the pass fires from a worklist, re-examining only the
   vertices a move can have made ready, instead of sweeping every
   vertex until nothing moves.

   A backward move justifies a register value with ONE preimage; with
   reconvergent fanout, justifications arriving over different paths
   may contradict each other (the meet of the popped values is empty).
   Degrading only the meet point to X is unsound: the conflicting
   claims have already committed concrete preimage bits elsewhere, and
   those commitments describe a pre-history that does not exist — the
   emitted machine then concretely diverges from the original in its
   first cycles. Any conflict therefore condemns the whole constructive
   pass, so it stops there, and the result is the X fallback below
   (initial values supplied by the scan chain), which is always safe. *)
let apply g rho =
  if not (is_legal g rho) then invalid_arg "Retime.apply: illegal retiming";
  Ppet_obs.Obs.span "retime.apply" @@ fun () ->
  let work = Rgraph.copy g in
  let n = Rgraph.n_vertices work in
  let edges = work.Rgraph.edges in
  let rem = Array.copy rho in
  let queue = Array.make (n + 1) 0 and queued = Array.make n false in
  let qhead = ref 0 and qtail = ref 0 in
  let push v =
    if rem.(v) <> 0 && not queued.(v) then begin
      queued.(v) <- true;
      queue.(!qtail) <- v;
      qtail := if !qtail = n then 0 else !qtail + 1
    end
  in
  for v = 0 to n - 1 do
    if gate_kind work v <> None then push v
  done;
  let loaded ei = edges.(ei).Rgraph.weight > 0 in
  let conflict = ref false in
  while (not !conflict) && !qhead <> !qtail do
    let v = queue.(!qhead) in
    qhead := if !qhead = n then 0 else !qhead + 1;
    queued.(v) <- false;
    match gate_kind work v with
    | None -> ()
    | Some kind ->
      if rem.(v) < 0 && Array.for_all loaded work.Rgraph.in_edges.(v) then begin
        (* forward move: the value is computed through the gate *)
        let pins = Array.map (fun ei -> pop_head edges.(ei)) work.Rgraph.in_edges.(v) in
        let value = Logic3.eval kind pins in
        let outs = work.Rgraph.out_edges.(v) in
        Array.iter (fun ei -> push_tail edges.(ei) value) outs;
        rem.(v) <- rem.(v) + 1;
        push v;
        Array.iter (fun ei -> push edges.(ei).Rgraph.head) outs
      end
      else if rem.(v) > 0 && Array.for_all loaded work.Rgraph.out_edges.(v) then begin
        (* backward move: justify the register from the outputs back to
           the inputs *)
        let value =
          Array.fold_left
            (fun acc ei ->
              let x = pop_tail edges.(ei) in
              match acc with
              | None -> None
              | Some a -> Logic3.meet a x)
            (Some Logic3.X) work.Rgraph.out_edges.(v)
        in
        let ins = work.Rgraph.in_edges.(v) in
        match value with
        | None -> conflict := true
        | Some value ->
          (match Logic3.preimage kind (Array.length ins) value with
           | None -> conflict := true
           | Some pre ->
             Array.iteri (fun pin ei -> push_head edges.(ei) pre.(pin)) ins;
             rem.(v) <- rem.(v) - 1;
             push v;
             Array.iter (fun ei -> push edges.(ei).Rgraph.tail) ins)
      end
  done;
  if !conflict || Array.exists (fun r -> r <> 0) rem then begin
    (* Constructive ordering failed or a justification conflict was
       detected; fall back to the weight formula.
       Every edge incident to a lagged vertex has its register contents
       time-shifted — even at unchanged weight — so only edges between
       two lag-0 vertices keep their initial values; the rest become X
       (supplied by the scan chain in hardware). Moves only touch edges
       at lagged vertices, so [work] still holds the others as given. *)
    Array.iteri
      (fun i (e : Rgraph.edge) ->
        if rho.(e.Rgraph.tail) <> 0 || rho.(e.Rgraph.head) <> 0 then begin
          let w = retimed_weight g rho i in
          e.Rgraph.weight <- w;
          e.Rgraph.inits <- List.init w (fun _ -> Logic3.X)
        end)
      edges;
    work
  end
  else work

let total_registers_after g rho =
  let total = ref 0 in
  Array.iteri (fun i _ -> total := !total + retimed_weight g rho i) g.Rgraph.edges;
  !total
