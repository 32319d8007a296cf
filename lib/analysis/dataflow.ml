module Csr = Ppet_digraph.Csr
module Domain_pool = Ppet_parallel.Domain_pool

type direction = Forward | Backward

type t = {
  csr : Csr.t;
  comp : int array;           (* vertex -> component id (Tarjan order) *)
  n_comps : int;
  comp_off : int array;       (* component -> slice of comp_vertex *)
  comp_vertex : int array;    (* vertices grouped by component *)
  fwd_comps : int array;      (* components sorted by forward level *)
  fwd_level_off : int array;
  bwd_comps : int array;
  bwd_level_off : int array;
  max_comp : int;
  mutable scratch : Csr.workspace option;  (* serial-path reuse *)
}

(* Iterative Tarjan over the CSR successor rows. Component ids come out
   in reverse topological order: an edge between distinct components
   goes from the higher id to the lower. *)
let tarjan (csr : Csr.t) =
  let n = csr.Csr.n in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  let comp = Array.make n (-1) in
  let n_comps = ref 0 in
  let next = ref 0 in
  let frame_v = Array.make (max n 1) 0 in
  let frame_i = Array.make (max n 1) 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let fp = ref 0 in
      frame_v.(0) <- root;
      frame_i.(0) <- csr.Csr.succ_off.(root);
      index.(root) <- !next;
      low.(root) <- !next;
      incr next;
      stack.(!sp) <- root;
      incr sp;
      on_stack.(root) <- true;
      while !fp >= 0 do
        let v = frame_v.(!fp) in
        let i = frame_i.(!fp) in
        if i < csr.Csr.succ_off.(v + 1) then begin
          frame_i.(!fp) <- i + 1;
          let w = csr.Csr.succ.(i) in
          if index.(w) < 0 then begin
            index.(w) <- !next;
            low.(w) <- !next;
            incr next;
            stack.(!sp) <- w;
            incr sp;
            on_stack.(w) <- true;
            incr fp;
            frame_v.(!fp) <- w;
            frame_i.(!fp) <- csr.Csr.succ_off.(w)
          end
          else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w)
        end
        else begin
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !n_comps;
              if w = v then continue := false
            done;
            incr n_comps
          end;
          decr fp;
          if !fp >= 0 then begin
            let p = frame_v.(!fp) in
            if low.(v) < low.(p) then low.(p) <- low.(v)
          end
        end
      done
    end
  done;
  (comp, !n_comps)

(* Group components of equal level into contiguous ranges: a counting
   sort of component ids by level, plus the level offset table. *)
let level_ranges level n_comps n_levels =
  let off = Array.make (n_levels + 1) 0 in
  Array.iter (fun l -> off.(l + 1) <- off.(l + 1) + 1) level;
  for l = 0 to n_levels - 1 do
    off.(l + 1) <- off.(l + 1) + off.(l)
  done;
  let cursor = Array.copy off in
  let comps = Array.make (max n_comps 1) 0 in
  for c = 0 to n_comps - 1 do
    comps.(cursor.(level.(c))) <- c;
    cursor.(level.(c)) <- cursor.(level.(c)) + 1
  done;
  (comps, off)

let prepare (csr : Csr.t) =
  let n = csr.Csr.n in
  let comp, n_comps = tarjan csr in
  (* group vertices by component *)
  let comp_off = Array.make (n_comps + 1) 0 in
  Array.iter (fun c -> comp_off.(c + 1) <- comp_off.(c + 1) + 1) comp;
  let max_comp = ref (if n = 0 then 0 else 1) in
  for c = 0 to n_comps - 1 do
    if comp_off.(c + 1) > !max_comp then max_comp := comp_off.(c + 1);
    comp_off.(c + 1) <- comp_off.(c + 1) + comp_off.(c)
  done;
  let cursor = Array.copy comp_off in
  let comp_vertex = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    comp_vertex.(cursor.(c)) <- v;
    cursor.(c) <- cursor.(c) + 1
  done;
  (* forward levels: process components in topological order (descending
     Tarjan ids), level = 1 + max over external predecessor components *)
  let flevel = Array.make (max n_comps 1) 0 in
  let n_flevels = ref (if n_comps = 0 then 0 else 1) in
  for c = n_comps - 1 downto 0 do
    let l = ref 0 in
    for i = comp_off.(c) to comp_off.(c + 1) - 1 do
      let v = comp_vertex.(i) in
      for j = csr.Csr.pred_off.(v) to csr.Csr.pred_off.(v + 1) - 1 do
        let pc = comp.(csr.Csr.pred.(j)) in
        if pc <> c && flevel.(pc) >= !l then l := flevel.(pc) + 1
      done
    done;
    flevel.(c) <- !l;
    if !l + 1 > !n_flevels then n_flevels := !l + 1
  done;
  (* backward levels: same over successor components, ascending ids *)
  let blevel = Array.make (max n_comps 1) 0 in
  let n_blevels = ref (if n_comps = 0 then 0 else 1) in
  for c = 0 to n_comps - 1 do
    let l = ref 0 in
    for i = comp_off.(c) to comp_off.(c + 1) - 1 do
      let v = comp_vertex.(i) in
      for j = csr.Csr.succ_off.(v) to csr.Csr.succ_off.(v + 1) - 1 do
        let sc = comp.(csr.Csr.succ.(j)) in
        if sc <> c && blevel.(sc) >= !l then l := blevel.(sc) + 1
      done
    done;
    blevel.(c) <- !l;
    if !l + 1 > !n_blevels then n_blevels := !l + 1
  done;
  let fwd_comps, fwd_level_off = level_ranges flevel n_comps !n_flevels in
  let bwd_comps, bwd_level_off = level_ranges blevel n_comps !n_blevels in
  {
    csr;
    comp;
    n_comps;
    comp_off;
    comp_vertex;
    fwd_comps;
    fwd_level_off;
    bwd_comps;
    bwd_level_off;
    max_comp = !max_comp;
    scratch = None;
  }

let n_components t = t.n_comps

let n_levels t = function
  | Forward -> Array.length t.fwd_level_off - 1
  | Backward -> Array.length t.bwd_level_off - 1

let max_component t = t.max_comp
let component_of t v = t.comp.(v)

let solve ?pool t ~direction ~init ~transfer ~equal =
  let csr = t.csr in
  let n = csr.Csr.n in
  let value = Array.init n init in
  let get v = value.(v) in
  let comps, level_off =
    match direction with
    | Forward -> (t.fwd_comps, t.fwd_level_off)
    | Backward -> (t.bwd_comps, t.bwd_level_off)
  in
  (* neighbours to requeue when a vertex changes: the vertices whose
     transfer reads it, i.e. successors forward, predecessors backward *)
  let dep_off, dep =
    match direction with
    | Forward -> (csr.Csr.succ_off, csr.Csr.succ)
    | Backward -> (csr.Csr.pred_off, csr.Csr.pred)
  in
  (* One component to quiescence. [inq.(v) = gen] marks queued vertices;
     components own disjoint vertex sets, so workers of one level (and
     successive levels) can share marks without clearing. *)
  let run_comp inq queue gen c =
    let lo = t.comp_off.(c) and hi = t.comp_off.(c + 1) in
    let cap = Array.length queue in
    for i = lo to hi - 1 do
      let v = t.comp_vertex.(i) in
      queue.(i - lo) <- v;
      inq.(v) <- gen
    done;
    (* a ring of at most [cap] queued vertices; the ends wrap by a
       compare rather than a [mod] on every push and pop *)
    let head = ref 0 and count = ref (hi - lo) in
    let tail = ref (if hi - lo = cap then 0 else hi - lo) in
    while !count > 0 do
      let v = queue.(!head) in
      head := if !head + 1 = cap then 0 else !head + 1;
      decr count;
      inq.(v) <- gen - 1;
      let nv = transfer get v in
      if not (equal nv value.(v)) then begin
        value.(v) <- nv;
        for j = dep_off.(v) to dep_off.(v + 1) - 1 do
          let w = dep.(j) in
          if t.comp.(w) = c && inq.(w) <> gen then begin
            queue.(!tail) <- w;
            tail := if !tail + 1 = cap then 0 else !tail + 1;
            incr count;
            inq.(w) <- gen
          end
        done
      end
    done
  in
  let n_lev = Array.length level_off - 1 in
  (match pool with
   | Some p when Domain_pool.jobs p > 1 && t.n_comps > 1 ->
     let jobs = Domain_pool.jobs p in
     (* marks shared (vertex sets are disjoint); queues per worker *)
     let inq = Array.make n 0 in
     let queues =
       Array.init jobs (fun _ -> Array.make (max 1 t.max_comp) 0)
     in
     for l = 0 to n_lev - 1 do
       let lo = level_off.(l) and hi = level_off.(l + 1) in
       let width = hi - lo in
       if width = 1 then run_comp inq queues.(0) 1 comps.(lo)
       else
         Domain_pool.run p (fun w ->
             let clo, chi = Domain_pool.chunk ~jobs ~n:width w in
             for i = clo to chi - 1 do
               run_comp inq queues.(w) 1 comps.(lo + i)
             done)
     done
   | _ ->
     let ws =
       match t.scratch with
       | Some ws -> ws
       | None ->
         let ws = Csr.workspace csr in
         t.scratch <- Some ws;
         ws
     in
     let gen = Csr.fresh_stamp ws in
     for l = 0 to n_lev - 1 do
       for i = level_off.(l) to level_off.(l + 1) - 1 do
         run_comp ws.Csr.vmark ws.Csr.queue gen comps.(i)
       done
     done);
  value
