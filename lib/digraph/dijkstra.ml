type tree = {
  dist : float array;
  via : int array;
  tree_nets : int array;
  decreases : int;
}

(* Everything a run needs, preallocated once and reused: the
   multicommodity saturation loop calls Dijkstra thousands of times on
   one graph, and reallocating dist/heap/parent arrays per call used to
   dominate its constant factor. *)
type workspace = {
  ws_dist : float array;
  ws_via : int array;
  ws_settled : bool array;
  ws_heap : Heap.t;
  ws_net_seen : int array;  (* stamp per net, for tree-net dedup *)
  ws_net_buf : int array;
  mutable ws_stamp : int;
}

let workspace g =
  let n = Netgraph.n_nodes g in
  let m = Netgraph.n_nets g in
  {
    ws_dist = Array.make (max n 1) infinity;
    ws_via = Array.make (max n 1) (-1);
    ws_settled = Array.make (max n 1) false;
    ws_heap = Heap.create n;
    ws_net_seen = Array.make (max m 1) 0;
    ws_net_buf = Array.make (max m 1) 0;
    ws_stamp = 0;
  }

let run_into ws g ~dist ~src =
  let n = Netgraph.n_nodes g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.run: bad source";
  if Array.length ws.ws_dist < n || Array.length ws.ws_net_seen < Netgraph.n_nets g
  then invalid_arg "Dijkstra.run_into: workspace too small for this graph";
  Netgraph.freeze g;
  let d = ws.ws_dist in
  let via = ws.ws_via in
  let settled = ws.ws_settled in
  let heap = ws.ws_heap in
  Array.fill d 0 n infinity;
  Array.fill via 0 n (-1);
  Array.fill settled 0 n false;
  Heap.clear heap;
  d.(src) <- 0.0;
  Heap.insert heap src 0.0;
  let decreases = ref 0 in
  while not (Heap.is_empty heap) do
    let v, dv = Heap.pop_min heap in
    if not settled.(v) then begin
      settled.(v) <- true;
      let relax e =
        let w = dist e in
        if w < 0.0 then invalid_arg "Dijkstra.run: negative net distance";
        let cand = dv +. w in
        Array.iter
          (fun u ->
            if (not settled.(u)) && cand < d.(u) then begin
              d.(u) <- cand;
              via.(u) <- e;
              if Heap.mem heap u then incr decreases;
              Heap.insert_or_decrease heap u cand
            end)
          (Netgraph.net_sinks g e)
      in
      Array.iter relax (Netgraph.out_nets g v)
    end
  done;
  ws.ws_stamp <- ws.ws_stamp + 1;
  let stamp = ws.ws_stamp in
  let k = ref 0 in
  for v = n - 1 downto 0 do
    let e = via.(v) in
    if e >= 0 && ws.ws_net_seen.(e) <> stamp then begin
      ws.ws_net_seen.(e) <- stamp;
      ws.ws_net_buf.(!k) <- e;
      incr k
    end
  done;
  let count = !k in
  {
    dist = d;
    via;
    tree_nets = Array.init count (fun i -> ws.ws_net_buf.(count - 1 - i));
    decreases = !decreases;
  }

let run g ~dist ~src = run_into (workspace g) g ~dist ~src

let path_to t g v =
  if t.dist.(v) = infinity then raise Not_found;
  let rec walk v acc =
    let e = t.via.(v) in
    if e < 0 then acc else walk (Netgraph.net_src g e) (e :: acc)
  in
  walk v []

(* The flat kernel. It replays [run_into]'s relaxation sequence over the
   CSR rows with the binary heap written out over the kernel's own
   arrays, so no float is ever boxed: net distances come straight from
   the caller's float array. Its sift-up makes [Heap]'s comparisons and
   its bottom-up pop leaves [Heap.pop_min]'s layout (see the pop below),
   so equal distances pop in the same order and settle through the same
   nets.

   Two facts let it skip work [run_into] does:
   - no settled flag: weights are non-negative, so vertices settle in
     non-decreasing distance order; a settled [u] has
     [d u <= dv <= dv + w], so [cand < d u] already fails for it, and a
     vertex leaves the heap only once;
   - no O(n) reset: a run reaches only the vertices it settles, so the
     next run restores just those. *)
module Flat = struct
  type t = {
    csr : Csr.t;
    d : float array;          (* vertex -> tentative distance *)
    via : int array;          (* vertex -> net that set [d], or -1 *)
    keys : int array;         (* heap slot -> vertex *)
    prios : float array;      (* heap slot -> priority, = d of its vertex *)
    pos : int array;          (* vertex -> heap slot, or -1 *)
    order : int array;        (* vertices of the last run, in settle order *)
    mutable n_settled : int;
    mutable n_decreases : int;
    mutable clean : bool;     (* false after a run that raised *)
    net_seen : int array;     (* stamp per net, for tree-net dedup *)
    mutable stamp : int;
    nets : int array;         (* tree nets of the last run *)
  }

  let create csr =
    let n = max (Csr.n_nodes csr) 1 and m = max (Csr.n_nets csr) 1 in
    {
      csr;
      d = Array.make n infinity;
      via = Array.make n (-1);
      keys = Array.make n 0;
      prios = Array.make n 0.0;
      pos = Array.make n (-1);
      order = Array.make n 0;
      n_settled = 0;
      n_decreases = 0;
      clean = true;
      net_seen = Array.make m 0;
      stamp = 0;
      nets = Array.make m 0;
    }

  let reset k =
    if k.clean then
      for i = 0 to k.n_settled - 1 do
        let v = Array.unsafe_get k.order i in
        Array.unsafe_set k.d v infinity;
        Array.unsafe_set k.via v (-1)
      done
    else begin
      Array.fill k.d 0 (Array.length k.d) infinity;
      Array.fill k.via 0 (Array.length k.via) (-1);
      Array.fill k.pos 0 (Array.length k.pos) (-1)
    end;
    k.n_settled <- 0

  let run k ~dist ~hits ~visits ~src =
    let csr = k.csr in
    if src < 0 || src >= csr.Csr.n then invalid_arg "Dijkstra.run: bad source";
    if Array.length dist < csr.Csr.m then
      invalid_arg "Dijkstra.Flat.run: distance array shorter than the net count";
    if Array.length hits < csr.Csr.m then
      invalid_arg "Dijkstra.Flat.run: hit array shorter than the net count";
    if Array.length visits < csr.Csr.n then
      invalid_arg "Dijkstra.Flat.run: visit array shorter than the vertex count";
    reset k;
    k.clean <- false;
    k.stamp <- k.stamp + 1;
    let stamp = k.stamp in
    let d = k.d and via = k.via and order = k.order in
    let keys = k.keys and prios = k.prios and pos = k.pos in
    let net_seen = k.net_seen and nets = k.nets in
    let out_off = csr.Csr.out_off and out_net = csr.Csr.out_net in
    let sink_off = csr.Csr.sink_off and sink = csr.Csr.sink in
    d.(src) <- 0.0;
    keys.(0) <- src;
    prios.(0) <- 0.0;
    pos.(src) <- 0;
    let len = ref 1 and n_settled = ref 0 and n_nets = ref 0 and n_dec = ref 0 in
    while !len > 0 do
      (* Pop the minimum bottom-up (Floyd, TREESORT 3): the hole at the
         root walks the min-child path to a leaf, ties going left, with
         one branch-free compare per level; the last entry then climbs
         back from that leaf while the entry above it is not below it.
         Priorities never decrease along the path, so the entries not
         below the last one's form a suffix of it, and the climb stops
         in the slot where a top-down sift-down stops: every entry ends
         where [Heap.pop_min] puts it. The vacated slot [last] holds
         +inf, so a right child there never wins; queued priorities are
         finite, since an entry goes in only when [cand < d u]. *)
      let v = Array.unsafe_get keys 0 in
      let last = !len - 1 in
      len := last;
      if last > 0 then begin
        let kl = Array.unsafe_get keys last and p = Array.unsafe_get prios last in
        Array.unsafe_set prios last infinity;
        let i = ref 0 and l = ref 1 in
        while !l < last do
          let c =
            !l + Bool.to_int (Array.unsafe_get prios (!l + 1) < Array.unsafe_get prios !l)
          in
          let kc = Array.unsafe_get keys c in
          Array.unsafe_set keys !i kc;
          Array.unsafe_set prios !i (Array.unsafe_get prios c);
          Array.unsafe_set pos kc !i;
          i := c;
          l := (2 * c) + 1
        done;
        let go = ref true in
        while !go && !i > 0 do
          let parent = (!i - 1) / 2 in
          if Array.unsafe_get prios parent < p then go := false
          else begin
            let kp = Array.unsafe_get keys parent in
            Array.unsafe_set keys !i kp;
            Array.unsafe_set prios !i (Array.unsafe_get prios parent);
            Array.unsafe_set pos kp !i;
            i := parent
          end
        done;
        Array.unsafe_set keys !i kl;
        Array.unsafe_set prios !i p;
        Array.unsafe_set pos kl !i
      end;
      Array.unsafe_set pos v (-1);
      (* settle v; a net new to this tree takes a hit, its sinks a visit *)
      Array.unsafe_set order !n_settled v;
      incr n_settled;
      let ev = Array.unsafe_get via v in
      if ev >= 0 && Array.unsafe_get net_seen ev <> stamp then begin
        Array.unsafe_set net_seen ev stamp;
        Array.unsafe_set nets !n_nets ev;
        incr n_nets;
        Array.unsafe_set hits ev (Array.unsafe_get hits ev + 1);
        for j = Array.unsafe_get sink_off ev to Array.unsafe_get sink_off (ev + 1) - 1 do
          let u = Array.unsafe_get sink j in
          Array.unsafe_set visits u (Array.unsafe_get visits u + 1)
        done
      end;
      let dv = Array.unsafe_get d v in
      for i = Array.unsafe_get out_off v to Array.unsafe_get out_off (v + 1) - 1 do
        let e = Array.unsafe_get out_net i in
        let w = Array.unsafe_get dist e in
        if w < 0.0 then invalid_arg "Dijkstra.run: negative net distance";
        let cand = dv +. w in
        for j = Array.unsafe_get sink_off e to Array.unsafe_get sink_off (e + 1) - 1 do
          let u = Array.unsafe_get sink j in
          if cand < Array.unsafe_get d u then begin
            Array.unsafe_set d u cand;
            Array.unsafe_set via u e;
            (* insert or decrease: either way sift up from u's slot *)
            let s = Array.unsafe_get pos u in
            let i =
              ref
                (if s >= 0 then begin
                   incr n_dec;
                   s
                 end
                 else begin
                   let s = !len in
                   len := s + 1;
                   s
                 end)
            in
            let go = ref true in
            while !go && !i > 0 do
              let parent = (!i - 1) / 2 in
              if Array.unsafe_get prios parent > cand then begin
                let kp = Array.unsafe_get keys parent in
                Array.unsafe_set keys !i kp;
                Array.unsafe_set prios !i (Array.unsafe_get prios parent);
                Array.unsafe_set pos kp !i;
                i := parent
              end
              else go := false
            done;
            Array.unsafe_set keys !i u;
            Array.unsafe_set prios !i cand;
            Array.unsafe_set pos u !i
          end
        done
      done
    done;
    k.n_settled <- !n_settled;
    k.n_decreases <- !n_dec;
    k.clean <- true;
    !n_nets

  let tree_nets k = k.nets

  let settled k = k.n_settled

  let decreases k = k.n_decreases
end
