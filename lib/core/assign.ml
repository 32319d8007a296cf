module Netgraph = Ppet_digraph.Netgraph
module Components = Ppet_digraph.Components
module Csr = Ppet_digraph.Csr
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Prng = Ppet_digraph.Prng

type partition = {
  vertices : int array;
  input_count : int;
  merged_from : int;
  oversize : bool;
  locked : bool;
}

type t = {
  partitions : partition list;
  partition_of : int array;
  cut_nets : int list;
  merges : int;
}

let finalize g partitions merges =
  let partitions =
    List.sort
      (fun a b ->
        match compare b.input_count a.input_count with
        | 0 -> compare a.vertices b.vertices
        | c -> c)
      partitions
  in
  let partition_of = Array.make (Netgraph.n_nodes g) (-1) in
  List.iteri
    (fun i pt -> Array.iter (fun v -> partition_of.(v) <- i) pt.vertices)
    partitions;
  let cut_nets = Components.cut_nets g partition_of in
  { partitions; partition_of; cut_nets; merges }

(* The greedy pass.

   It has a structural invariant a table-per-cluster formulation never
   exploits: only the current growing partition [o] ever mutates, and
   [o] is marked dead before the scan, so every cluster still in the
   live set carries the iota it was born with. Make_Group emits the
   clusters sorted by input count descending, hence extract_max (first
   strict maximum over a non-increasing sequence) is just "first alive
   index", and an index-ordered doubly-linked alive list yields both the
   extraction order and the ascending candidate enumeration for free.

   Membership tests go through a vertex -> live-index [owner] array
   (clusters partition the vertices; a vertex is relabelled at most once
   beyond its initial assignment, when its cluster is absorbed), and
   entering-net sets are deduplicated int arrays. The growing
   partition's set is stamped once per greedy step, so scoring a
   candidate is one sweep of the candidate's own set, with no hashing
   and no allocation.

   Above max_merge_candidates live clusters, a partial Fisher-Yates
   draws only the sample actually kept, instead of shuffling the whole
   candidate head (one rng draw per live cluster per greedy step). The
   hashtable formulation kept as the test oracle shuffles the whole
   head, so the two agree only below the cap, and the larger paper
   benchmarks exceed it: at l_k 16, s5378 forms ~2 000 clusters and
   s38417 ~15 000 against the default cap of 1 500. *)

let run ~csr c g (clustering : Cluster.t) (p : Params.t) rng =
  if Csr.n_nodes csr <> Netgraph.n_nodes g || Csr.n_nets csr <> Netgraph.n_nets g
  then invalid_arg "Assign.run: csr snapshot does not match graph";
  let m = Csr.n_nets csr in
  let net_src = csr.Csr.net_src in
  let in_off = csr.Csr.in_off and in_net = csr.Csr.in_net in
  let clusters = Array.of_list clustering.Cluster.clusters in
  let nl = Array.length clusters in
  (* per live cluster *)
  let mem = Array.make nl [||] in
  let mem_len = Array.make nl 0 in
  let ent = Array.make nl [||] in
  let ent_len = Array.make nl 0 in
  let n_pis = Array.make nl 0 in
  let from = Array.make nl 1 in
  let owner = Array.make (Netgraph.n_nodes g) (-1) in
  let net_stamp = Array.make (max m 1) 0 in
  let stamp = ref 0 in
  let buf = ref (Array.make 64 0) in
  let ensure_buf k =
    if Array.length !buf < k then begin
      let grown = Array.make (2 * k) 0 in
      Array.blit !buf 0 grown 0 (Array.length !buf);
      buf := grown
    end
  in
  Array.iteri
    (fun i (cl : Cluster.cluster) ->
      mem.(i) <- Array.copy cl.Cluster.vertices;
      mem_len.(i) <- Array.length cl.Cluster.vertices;
      Array.iter (fun v -> owner.(v) <- i) cl.Cluster.vertices)
    clusters;
  for i = 0 to nl - 1 do
    incr stamp;
    let s = !stamp in
    let k = ref 0 in
    for t = 0 to mem_len.(i) - 1 do
      let v = mem.(i).(t) in
      if (Circuit.node c v).Circuit.kind = Gate.Input then
        n_pis.(i) <- n_pis.(i) + 1;
      for ii = in_off.(v) to in_off.(v + 1) - 1 do
        let e = in_net.(ii) in
        if owner.(net_src.(e)) <> i && net_stamp.(e) <> s then begin
          net_stamp.(e) <- s;
          ensure_buf (!k + 1);
          !buf.(!k) <- e;
          incr k
        end
      done
    done;
    ent.(i) <- Array.sub !buf 0 !k;
    ent_len.(i) <- !k
  done;
  (* index-ordered alive list *)
  let head = ref (if nl > 0 then 0 else -1) in
  let tail = ref (nl - 1) in
  let prev = Array.init nl (fun i -> i - 1) in
  let next = Array.init nl (fun i -> if i = nl - 1 then -1 else i + 1) in
  let alive = Array.make (max nl 1) true in
  (* alive non-locked count, for the candidate-cap decision *)
  let alivec = ref 0 in
  Array.iter
    (fun (cl : Cluster.cluster) -> if not cl.Cluster.locked then incr alivec)
    clusters;
  let unlink i =
    if prev.(i) >= 0 then next.(prev.(i)) <- next.(i) else head := next.(i);
    if next.(i) >= 0 then prev.(next.(i)) <- prev.(i) else tail := prev.(i);
    alive.(i) <- false;
    if not clusters.(i).Cluster.locked then decr alivec
  in
  (* Scoring against the growing partition o. Once per greedy step,
     [begin_step] stamps ent(o) and counts in [cnt.(c)] how many of its
     nets cluster c sources. Since ent(o) holds no net sourced in o and
     ent(gi) none sourced in gi, the entering set of o + gi is
       ent(o) minus the cnt.(gi) nets gi sources, plus
       the nets of ent(gi) that o does not source and ent(o) lacks,
     so a candidate costs one sweep of ent(gi). *)
  let cnt = Array.make (max nl 1) 0 in
  let o_stamp = ref 0 in
  let begin_step o =
    incr stamp;
    let s = !stamp in
    o_stamp := s;
    let eo = ent.(o) in
    for t = 0 to ent_len.(o) - 1 do
      let e = eo.(t) in
      net_stamp.(e) <- s;
      let c = owner.(net_src.(e)) in
      cnt.(c) <- cnt.(c) + 1
    done
  in
  let end_step o =
    let eo = ent.(o) in
    for t = 0 to ent_len.(o) - 1 do
      cnt.(owner.(net_src.(eo.(t)))) <- 0
    done
  in
  (* size of the entering set of o + gi, or -1 once it exceeds
     [allowance] (it only grows as the sweep proceeds) *)
  let union o gi allowance =
    let u = ref (ent_len.(o) - cnt.(gi)) in
    let s = !o_stamp in
    let eg = ent.(gi) and len = ent_len.(gi) in
    let t = ref 0 in
    while !u <= allowance && !t < len do
      let e = Array.unsafe_get eg !t in
      if Array.unsafe_get owner (Array.unsafe_get net_src e) <> o
         && Array.unsafe_get net_stamp e <> s
      then incr u;
      incr t
    done;
    if !u > allowance then -1 else !u
  in
  let merge o gi =
    for t = 0 to mem_len.(gi) - 1 do
      owner.(mem.(gi).(t)) <- o
    done;
    let lo = mem_len.(o) and lg = mem_len.(gi) in
    if lo + lg > Array.length mem.(o) then begin
      let grown = Array.make (max (lo + lg) (2 * lo)) 0 in
      Array.blit mem.(o) 0 grown 0 lo;
      mem.(o) <- grown
    end;
    Array.blit mem.(gi) 0 mem.(o) lo lg;
    mem_len.(o) <- lo + lg;
    incr stamp;
    let s = !stamp in
    ensure_buf (ent_len.(o) + ent_len.(gi));
    let k = ref 0 in
    let keep arr len =
      for t = 0 to len - 1 do
        let e = arr.(t) in
        if owner.(net_src.(e)) <> o && net_stamp.(e) <> s then begin
          net_stamp.(e) <- s;
          !buf.(!k) <- e;
          incr k
        end
      done
    in
    keep ent.(o) ent_len.(o);
    keep ent.(gi) ent_len.(gi);
    ent.(o) <- Array.sub !buf 0 !k;
    ent_len.(o) <- !k;
    n_pis.(o) <- n_pis.(o) + n_pis.(gi);
    from.(o) <- from.(o) + from.(gi);
    unlink gi
  in
  let cap = p.Params.max_merge_candidates in
  let cand = Array.make (max nl 1) 0 in
  let sample = Array.make (max (min nl cap) 1) 0 in
  (* sampling pool over non-locked clusters, compacted lazily as they
     die, so one greedy step costs O(cap) even with 10^5 clusters live *)
  let pool = Array.make (max nl 1) 0 in
  let p_len = ref 0 in
  Array.iteri
    (fun i (cl : Cluster.cluster) ->
      if not cl.Cluster.locked then begin
        pool.(!p_len) <- i;
        incr p_len
      end)
    clusters;
  let picked = Array.make (max nl 1) 0 in
  let pick_s = ref 0 in
  (* alive non-locked candidates, ascending; above the cap keep the
     cap/2 smallest clusters (the list tail) and sample the rest *)
  let candidates () =
    let h = cap / 2 in
    let keep = cap - h in
    if !alivec <= 2 * cap then begin
      let len = ref 0 in
      let i = ref !head in
      while !i >= 0 do
        if not clusters.(!i).Cluster.locked then begin
          cand.(!len) <- !i;
          incr len
        end;
        i := next.(!i)
      done;
      if !len <= cap then (cand, !len)
      else begin
        let hlen = !len - h in
        Array.blit cand hlen sample 0 h;
        for t = 0 to keep - 1 do
          let j = t + Prng.int rng (hlen - t) in
          let tmp = cand.(t) in
          cand.(t) <- cand.(j);
          cand.(j) <- tmp;
          sample.(h + t) <- cand.(t)
        done;
        (sample, cap)
      end
    end
    else begin
      (* far above the cap: collect the tail by walking the alive list
         backward, then draw the head sample from the pool, rejecting
         dead entries (compacting as encountered), tail members and
         repeats — uniform without replacement over the same head set *)
      incr pick_s;
      let s = !pick_s in
      let got = ref 0 in
      let i = ref !tail in
      while !got < h do
        if not clusters.(!i).Cluster.locked then begin
          incr got;
          sample.(h - !got) <- !i;
          picked.(!i) <- s
        end;
        i := prev.(!i)
      done;
      let t = ref 0 in
      while !t < keep do
        let idx = Prng.int rng !p_len in
        let c = pool.(idx) in
        if not alive.(c) then begin
          decr p_len;
          pool.(idx) <- pool.(!p_len)
        end
        else if picked.(c) <> s then begin
          picked.(c) <- s;
          sample.(h + !t) <- c;
          incr t
        end
      done;
      (sample, cap)
    end
  in
  let merges = ref 0 in
  let partitions = ref [] in
  while !head >= 0 do
    let oi = !head in
    unlink oi;
    let o_locked = clusters.(oi).Cluster.locked in
    let continue = ref true in
    while (not o_locked) && !continue && ent_len.(oi) + n_pis.(oi) < p.Params.l_k
    do
      let arr, len = candidates () in
      begin_step oi;
      let bg = ref 0 and br = ref 0 and bi = ref (-1) in
      for t = 0 to len - 1 do
        let gi = arr.(t) in
        let pis = n_pis.(oi) + n_pis.(gi) in
        (* past [l_k - pis - bg] the gain falls below the best one,
           and only equal gains compare [removed], so such a candidate
           cannot win; [bg] is 0 until a candidate is found *)
        let u = union oi gi (p.Params.l_k - pis - !bg) in
        if u >= 0 then begin
          let gain = p.Params.l_k - (u + pis) in
          let removed = ent_len.(oi) + ent_len.(gi) - u in
          if !bi < 0 || gain > !bg || (gain = !bg && removed > !br) then begin
            bg := gain;
            br := removed;
            bi := gi
          end
        end
      done;
      end_step oi;
      if !bi < 0 then continue := false
      else begin
        merge oi !bi;
        incr merges
      end
    done;
    let vertices = Array.sub mem.(oi) 0 mem_len.(oi) in
    Array.sort compare vertices;
    partitions :=
      {
        vertices;
        input_count = ent_len.(oi) + n_pis.(oi);
        merged_from = from.(oi);
        oversize = clusters.(oi).Cluster.oversize;
        locked = o_locked;
      }
      :: !partitions
  done;
  finalize g !partitions !merges
