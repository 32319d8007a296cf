module Netgraph = Ppet_digraph.Netgraph
module Components = Ppet_digraph.Components
module Csr = Ppet_digraph.Csr
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

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

   Only the growing partition [o] ever mutates, and [o] leaves the
   candidate set before it grows, so every live cluster keeps the iota
   it was born with. Make_Group emits the clusters by input count
   descending, so extract_max (the first strict maximum) is the first
   live index.

   A greedy step picks what a scan of every live unlocked cluster in
   index order picks: the largest gain l_k - iota(o + c) with
   iota(o + c) <= l_k, then the most entering nets removed, then the
   lowest index. With cnt(c) the nets of ent(o) that c sources and x(c)
   the nets of ent(c) that o sources or already has,
     |ent(o + c)| = |ent(o)| - cnt(c) + |ent(c)| - x(c)
   and the merge removes cnt(c) + x(c) nets. Both counters are zero
   unless c sources a net of ent(o), reads a net sourced in o or shares
   an entering net with o. These neighbours are found from the sink
   rows of ent(o) and of o's own nets, and scored exactly. Every other
   candidate scores the disjoint iota(o) + iota(c) and removes nothing,
   so the best of them is the lowest-index candidate of least iota that
   is not a neighbour. A neighbour never scores below the disjoint
   formula, so the lowest-index candidate of least iota, read from
   per-iota candidate lists kept in index order, can stand in for it.
   A step costs the fanout of ent(o) and of o's nets plus the neighbour
   count plus l_k, however many clusters are live.

   Membership tests go through a vertex -> cluster [owner] array
   (clusters partition the vertices; a vertex is relabelled at most
   once beyond its initial assignment, when its cluster is absorbed),
   and entering-net sets are deduplicated int arrays. *)

let run ~csr c g (clustering : Cluster.t) (p : Params.t) =
  if Csr.n_nodes csr <> Netgraph.n_nodes g || Csr.n_nets csr <> Netgraph.n_nets g
  then invalid_arg "Assign.run: csr snapshot does not match graph";
  let m = Csr.n_nets csr in
  let l_k = p.Params.l_k in
  let net_src = csr.Csr.net_src in
  let in_off = csr.Csr.in_off and in_net = csr.Csr.in_net in
  let out_off = csr.Csr.out_off and out_net = csr.Csr.out_net in
  let sink_off = csr.Csr.sink_off and sink = csr.Csr.sink in
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
  (* [cand]: live and unlocked, a possible mergee. Candidates of
     iota <= l_k also sit in the index-ordered list of their iota. *)
  let cand = Array.init (max nl 1) (fun i -> i < nl && not clusters.(i).Cluster.locked) in
  let first = Array.make (l_k + 1) (-1) in
  let bprev = Array.make (max nl 1) (-1) and bnext = Array.make (max nl 1) (-1) in
  for i = nl - 1 downto 0 do
    let b = ent_len.(i) + n_pis.(i) in
    if cand.(i) && b <= l_k then begin
      bnext.(i) <- first.(b);
      if first.(b) >= 0 then bprev.(first.(b)) <- i;
      first.(b) <- i
    end
  done;
  (* o is killed before it grows, so its iota still names its list *)
  let kill i =
    if cand.(i) then begin
      cand.(i) <- false;
      let b = ent_len.(i) + n_pis.(i) in
      if b <= l_k then begin
        if bprev.(i) >= 0 then bnext.(bprev.(i)) <- bnext.(i) else first.(b) <- bnext.(i);
        if bnext.(i) >= 0 then bprev.(bnext.(i)) <- bprev.(i)
      end
    end
  in
  (* The neighbours of o, each with cnt and x, listed once per step in
     [nb]. [seen] keeps a cluster from counting a net's sinks twice. *)
  let step = ref 0 and visit = ref 0 in
  let mark = Array.make (max nl 1) 0 and seen = Array.make (max nl 1) 0 in
  let cnt = Array.make (max nl 1) 0 and x = Array.make (max nl 1) 0 in
  let nb = Array.make (max nl 1) 0 and n_nb = ref 0 in
  let touch k =
    if mark.(k) <> !step then begin
      mark.(k) <- !step;
      cnt.(k) <- 0;
      x.(k) <- 0;
      nb.(!n_nb) <- k;
      incr n_nb
    end
  in
  (* every candidate that net e enters, that is, that reads e and does
     not source it *)
  let entered e =
    incr visit;
    let s = !visit and src = owner.(net_src.(e)) in
    for t = sink_off.(e) to sink_off.(e + 1) - 1 do
      let k = owner.(sink.(t)) in
      if k <> src && cand.(k) && seen.(k) <> s then begin
        seen.(k) <- s;
        touch k;
        x.(k) <- x.(k) + 1
      end
    done
  in
  let neighbours o =
    incr step;
    n_nb := 0;
    let eo = ent.(o) in
    for t = 0 to ent_len.(o) - 1 do
      let e = eo.(t) in
      let k = owner.(net_src.(e)) in
      if cand.(k) then begin
        touch k;
        cnt.(k) <- cnt.(k) + 1
      end;
      entered e
    done;
    let mo = mem.(o) in
    for t = 0 to mem_len.(o) - 1 do
      let v = mo.(t) in
      for j = out_off.(v) to out_off.(v + 1) - 1 do
        entered out_net.(j)
      done
    done
  in
  (* the best (gain, removed, lowest index) offered in this step *)
  let bg = ref 0 and br = ref 0 and bi = ref (-1) in
  let offer gain removed k =
    if !bi < 0 || gain > !bg
       || (gain = !bg && (removed > !br || (removed = !br && k < !bi)))
    then begin
      bg := gain;
      br := removed;
      bi := k
    end
  in
  (* the mergee the full scan picks, or -1 *)
  let pick o =
    neighbours o;
    let io = ent_len.(o) + n_pis.(o) in
    bi := -1;
    for t = 0 to !n_nb - 1 do
      let k = nb.(t) in
      let iota = io - cnt.(k) + ent_len.(k) - x.(k) + n_pis.(k) in
      if iota <= l_k then offer (l_k - iota) (cnt.(k) + x.(k)) k
    done;
    (* The first candidate of least iota, offered at the disjoint
       score. If it is a neighbour, its exact score above is at least
       as high and removes a net, so neither this offer nor any
       non-neighbour of equal or larger iota can beat it. *)
    let b = ref 0 in
    while !b <= l_k - io && first.(!b) < 0 do
      incr b
    done;
    if !b <= l_k - io then offer (l_k - io - !b) 0 first.(!b);
    !bi
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
    kill gi
  in
  let merges = ref 0 in
  let partitions = ref [] in
  (* every cluster below oi is merged or emitted, so oi, unless it was
     merged, is the first live one; a locked cluster is never merged *)
  for oi = 0 to nl - 1 do
    let o_locked = clusters.(oi).Cluster.locked in
    if o_locked || cand.(oi) then begin
      kill oi;
      let continue = ref true in
      while (not o_locked) && !continue && ent_len.(oi) + n_pis.(oi) < l_k do
        let gi = pick oi in
        if gi < 0 then continue := false
        else begin
          merge oi gi;
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
    end
  done;
  finalize g !partitions !merges
