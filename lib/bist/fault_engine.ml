module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Segment = Ppet_netlist.Segment
module Domain_pool = Ppet_parallel.Domain_pool
module Obs = Ppet_obs.Obs

let word_mask = max_int

let const_of stuck_at = if stuck_at then word_mask else 0

(* Flat encoding of the combinational kinds for the kernel:
   code = (family lsl 1) lor negated, with families 0 = wire
   (BUFF/NOT), 1 = AND, 2 = OR, 3 = XOR. The inner loops dispatch on the
   family once per gate and fold the negation in as a final pass, so
   NAND/NOR/XNOR share their family's word loop. *)
let code_of = function
  | Gate.Buff -> 0
  | Gate.Not -> 1
  | Gate.And -> 2
  | Gate.Nand -> 3
  | Gate.Or -> 4
  | Gate.Nor -> 5
  | Gate.Xor -> 6
  | Gate.Xnor -> 7
  | Gate.Input | Gate.Dff ->
    invalid_arg "Fault_engine: member gates must be combinational"

type t = {
  c : Circuit.t;
  seg_order : int array;     (* member combinational gates, topo order *)
  pos_of : int array;        (* node id -> position in seg_order, -1 *)
  cones : (int, int array) Hashtbl.t;
      (* fault-site node id -> member positions in its transitive
         fanout, ascending; the site itself is excluded (combinational
         members cannot cycle). Shared read-only by the workers;
         populated serially before each dispatch. *)
  cone_stamp : int array;    (* per position, for cone construction *)
  mutable cone_epoch : int;
  (* --- flat view the kernel runs on: slot i < width is input signal
     i, slot width + k is seg_order.(k) --- *)
  width : int;
  n_slots : int;
  slot_of : int array;       (* node id -> slot, -1 *)
  kind_code : int array;     (* per position *)
  fanin_off : int array;     (* position -> offset into fanin_slot (CSR) *)
  fanin_slot : int array;
  obs_slot : bool array;     (* per slot *)
  last_rd : int array;       (* per slot: max position reading it, -1 *)
}

let check_members c (seg : Segment.t) =
  Array.iter
    (fun id ->
      if (Circuit.node c id).Circuit.kind = Gate.Dff then
        invalid_arg
          "Fault_engine: segment members must be combinational (map \
           clusters with their flip-flops on the boundary)")
    seg.Segment.members

let create sim (seg : Segment.t) =
  let c = Simulator.circuit sim in
  check_members c seg;
  let n = Circuit.size c in
  let member = Array.make n false in
  Array.iter (fun id -> member.(id) <- true) seg.Segment.members;
  let seg_order =
    Array.of_list
      (List.filter
         (fun id -> member.(id))
         (Array.to_list (Simulator.order sim)))
  in
  let pos_of = Array.make n (-1) in
  Array.iteri (fun k id -> pos_of.(id) <- k) seg_order;
  let inputs = Segment.input_signals seg in
  let width = Array.length inputs in
  let n_pos = Array.length seg_order in
  let n_slots = width + n_pos in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun k id -> slot_of.(id) <- width + k) seg_order;
  Array.iteri (fun i id -> slot_of.(id) <- i) inputs;
  let kind_code =
    Array.map (fun id -> code_of (Circuit.node c id).Circuit.kind) seg_order
  in
  let fanin_off = Array.make (n_pos + 1) 0 in
  Array.iteri
    (fun k id ->
      fanin_off.(k + 1) <-
        fanin_off.(k) + Array.length (Circuit.node c id).Circuit.fanins)
    seg_order;
  let fanin_slot = Array.make (max fanin_off.(n_pos) 1) 0 in
  (* positions ascend, so a slot's last reader is the last write *)
  let last_rd = Array.make (max n_slots 1) (-1) in
  Array.iteri
    (fun k id ->
      Array.iteri
        (fun j f ->
          (* every fan-in of a member is itself a member position or a
             segment input signal, so it always has a slot *)
          let s = slot_of.(f) in
          fanin_slot.(fanin_off.(k) + j) <- s;
          last_rd.(s) <- k)
        (Circuit.node c id).Circuit.fanins)
    seg_order;
  let obs_slot = Array.make (max n_slots 1) false in
  Array.iter (fun id -> obs_slot.(slot_of.(id)) <- true) seg.Segment.observed;
  {
    c;
    seg_order;
    pos_of;
    cones = Hashtbl.create 64;
    cone_stamp = Array.make (max n_pos 1) 0;
    cone_epoch = 0;
    width;
    n_slots;
    slot_of;
    kind_code;
    fanin_off;
    fanin_slot;
    obs_slot;
    last_rd;
  }

(* Member positions reachable from signal [root] through member gates.
   Cached: both polarities of an output fault and every pin fault of a
   gate share one cone. *)
let cone t root =
  match Hashtbl.find_opt t.cones root with
  | Some arr -> arr
  | None ->
    t.cone_epoch <- t.cone_epoch + 1;
    let ep = t.cone_epoch in
    let acc = ref [] in
    let rec expand id =
      Array.iter
        (fun sink ->
          let p = t.pos_of.(sink) in
          if p >= 0 && t.cone_stamp.(p) <> ep then begin
            t.cone_stamp.(p) <- ep;
            acc := p :: !acc;
            expand sink
          end)
        t.c.Circuit.fanouts.(id)
    in
    expand root;
    let arr = Array.of_list !acc in
    Array.sort compare arr;
    Hashtbl.replace t.cones root arr;
    arr

let root_of (f : Fault.t) =
  match f.Fault.site with
  | Fault.Output id -> id
  | Fault.Input_pin (gid, _) -> gid

(* ------------------------------------------------------------------ *)
(* pattern construction                                                *)

(* Single pass over the vector list: open a fresh word batch every
   [bits_per_word] vectors (the last one ragged), OR each vector's bits
   into the open batch as it streams by. *)
let pack_vectors ~width vectors =
  let bpw = Gate.bits_per_word in
  let rev_batches = ref [] in
  let words = ref [||] in
  let b = ref bpw in
  List.iter
    (fun vector ->
      if !b = bpw then begin
        words := Array.make width 0;
        rev_batches := !words :: !rev_batches;
        b := 0
      end;
      let w = !words in
      for i = 0 to width - 1 do
        if (vector lsr i) land 1 = 1 then w.(i) <- w.(i) lor (1 lsl !b)
      done;
      incr b)
    vectors;
  List.rev !rev_batches

let max_exhaustive_width = 20

let exhaustive_batches ~width =
  let bpw = Gate.bits_per_word in
  ((1 lsl width) + bpw - 1) / bpw

(* The exhaustive sequence in closed form. Word j of input i holds
   vectors [bpw*j, bpw*j + bpw), and input i of vector v is bit i of v,
   a square wave of period 2^(i+1). Below [table_inputs] (six inputs at
   62 bits) the half period is shorter than a word, so the wave can
   flip more than once inside one; but the word depends only on its
   starting phase (bpw*j) mod 2^(i+1), and row i of [phase_table] holds
   all 2^(i+1) phases — 126 entries in all. From [table_inputs] on the
   half period is at least a word long, so the wave flips at most once
   inside one. *)
let table_inputs =
  let rec first i =
    if 1 lsl i >= Gate.bits_per_word then i else first (i + 1)
  in
  first 0

let phase_table =
  let tbl = Array.make ((2 lsl table_inputs) - 2) 0 in
  for i = 0 to table_inputs - 1 do
    let period = 2 lsl i in
    for r = 0 to period - 1 do
      let w = ref 0 in
      for b = 0 to Gate.bits_per_word - 1 do
        if ((r + b) lsr i) land 1 = 1 then w := !w lor (1 lsl b)
      done;
      tbl.(period - 2 + r) <- !w
    done
  done;
  tbl

let exhaustive_word ~width ~batch i =
  let bpw = Gate.bits_per_word in
  let v0 = bpw * batch in
  let w =
    if i < table_inputs then
      let period = 2 lsl i in
      Array.unsafe_get phase_table (period - 2 + (v0 land (period - 1)))
    else begin
      (* [k]: offset of the next flip from the word's first vector *)
      let k = (((v0 lsr i) + 1) lsl i) - v0 in
      let low = if k >= bpw then word_mask else (1 lsl k) - 1 in
      if (v0 lsr i) land 1 = 0 then word_mask land lnot low else low
    end
  in
  (* the last batch is ragged: bits past vector 2^width - 1 stay 0 *)
  let left = (1 lsl width) - v0 in
  if left >= bpw then w else w land ((1 lsl left) - 1)

let lfsr_patterns ~width ~count =
  if width < 1 || width > 32 then
    invalid_arg "Fault_engine.lfsr_patterns: width must be in 1..32";
  let l = Lfsr.create ~width () in
  let vectors =
    0
    :: List.filteri (fun i _ -> i < count - 1) (Lfsr.sequence l (max 0 (count - 1)))
  in
  pack_vectors ~width vectors

(* The pattern source as the kernels read it: the exhaustive sequence
   of a width, or explicit batches. Either way a kernel fetches only
   the words of the batches it is about to simulate. *)
type source = Closed of int | Given of int array array

let[@inline] source_word src ~batch i =
  match src with
  | Closed width -> exhaustive_word ~width ~batch i
  | Given pats -> Array.unsafe_get (Array.unsafe_get pats batch) i

let coverage results =
  match results with
  | [] -> 1.0
  | _ ->
    let det = List.length (List.filter snd results) in
    float_of_int det /. float_of_int (List.length results)

(* ------------------------------------------------------------------ *)
(* the kernel: W >= 1 pattern words per gate visit over a flat
   Bigarray value store (slot s occupies words [s*W .. s*W+W-1])       *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type mscratch = {
  mgood : words;
  mfaulty : words;
  mstamp : int array;        (* per slot; valid where = mepoch *)
  mutable mepoch : int;
  mutable mevals : int;
  (* per-fault detection state lives here rather than in per-visit refs
     so the hot path allocates nothing *)
  mutable mdetected : bool;
  mutable mreach : int;
}

let make_mscratch t w =
  let n = max 1 (t.n_slots * w) in
  let mk () =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a
  in
  {
    mgood = mk ();
    mfaulty = mk ();
    mstamp = Array.make (max 1 t.n_slots) 0;
    mepoch = 0;
    mevals = 0;
    mdetected = false;
    mreach = -1;
  }

(* The concrete type constraint matters: left polymorphic, the bigarray
   primitive inside compiles to the generic C call (caml_ba_get_1) and
   every word access in the kernel costs a ~50ns trip through the
   runtime; monomorphic, it compiles to an inline load. *)
let[@inline] bget (a : words) i = Bigarray.Array1.unsafe_get a i
let[@inline] bset (a : words) i (v : int) = Bigarray.Array1.unsafe_set a i v

(* Good simulation of one word group: batches [g0 .. g0+gn-1] of
   [src], gn <= w (the final group is ragged). *)
let eval_good_multi t ms ~w ~gn src ~g0 =
  let mg = ms.mgood in
  for i = 0 to t.width - 1 do
    let base = i * w in
    for j = 0 to gn - 1 do
      bset mg (base + j) (source_word src ~batch:(g0 + j) i)
    done
  done;
  let n_pos = Array.length t.seg_order in
  for p = 0 to n_pos - 1 do
    let off = Array.unsafe_get t.fanin_off p in
    let arity = Array.unsafe_get t.fanin_off (p + 1) - off in
    let code = Array.unsafe_get t.kind_code p in
    let d = (t.width + p) * w in
    let s0 = Array.unsafe_get t.fanin_slot off * w in
    (match code lsr 1 with
     | 0 ->
       for j = 0 to gn - 1 do
         bset mg (d + j) (bget mg (s0 + j))
       done
     | fam ->
       let s1 = Array.unsafe_get t.fanin_slot (off + 1) * w in
       (match fam with
        | 1 ->
          for j = 0 to gn - 1 do
            bset mg (d + j) (bget mg (s0 + j) land bget mg (s1 + j))
          done
        | 2 ->
          for j = 0 to gn - 1 do
            bset mg (d + j) (bget mg (s0 + j) lor bget mg (s1 + j))
          done
        | _ ->
          for j = 0 to gn - 1 do
            bset mg (d + j) (bget mg (s0 + j) lxor bget mg (s1 + j))
          done);
       for i = 2 to arity - 1 do
         let si = Array.unsafe_get t.fanin_slot (off + i) * w in
         match fam with
         | 1 ->
           for j = 0 to gn - 1 do
             bset mg (d + j) (bget mg (d + j) land bget mg (si + j))
           done
         | 2 ->
           for j = 0 to gn - 1 do
             bset mg (d + j) (bget mg (d + j) lor bget mg (si + j))
           done
         | _ ->
           for j = 0 to gn - 1 do
             bset mg (d + j) (bget mg (d + j) lxor bget mg (si + j))
           done
       done);
    if code land 1 = 1 then
      for j = 0 to gn - 1 do
        bset mg (d + j) (word_mask land lnot (bget mg (d + j)))
      done
  done;
  ms.mevals <- ms.mevals + (n_pos * gn)

(* Faulty evaluation of position [p] with each fan-in read from the
   faulty plane when stamped this epoch, the good plane otherwise.
   Negation is folded in branchlessly (lxor with an all-ones mask), and
   the result is compared against the good plane as it is written, so
   the caller never re-scans the destination. Returns 0 when no fan-in
   was stamped (nothing written), 1 when written but equal to the good
   plane in every word, 2 when some word differs. *)
let eval_faulty_pos t ms ~w ~gn p =
  let fanin_slot = t.fanin_slot and mstamp = ms.mstamp in
  let off = Array.unsafe_get t.fanin_off p in
  let arity = Array.unsafe_get t.fanin_off (p + 1) - off in
  let ep = ms.mepoch in
  let mg = ms.mgood and mf = ms.mfaulty in
  let code = Array.unsafe_get t.kind_code p in
  let d = (t.width + p) * w in
  let fam = code lsr 1 in
  let nmask = if code land 1 = 1 then word_mask else 0 in
  let touched =
    if fam = 0 then
      Array.unsafe_get mstamp (Array.unsafe_get fanin_slot off) = ep
    else if arity = 2 then
      Array.unsafe_get mstamp (Array.unsafe_get fanin_slot off) = ep
      || Array.unsafe_get mstamp (Array.unsafe_get fanin_slot (off + 1)) = ep
    else begin
      let tch = ref false in
      for i = 0 to arity - 1 do
        if Array.unsafe_get mstamp (Array.unsafe_get fanin_slot (off + i)) = ep
        then tch := true
      done;
      !tch
    end
  in
  if not touched then 0
  else begin
    let diff = ref false in
    (match fam with
     | 0 ->
       (* single fan-in, and touched means it is stamped *)
       let s0 = Array.unsafe_get fanin_slot off * w in
       for j = 0 to gn - 1 do
         let r = bget mf (s0 + j) lxor nmask in
         if r <> bget mg (d + j) then diff := true;
         bset mf (d + j) r
       done
     | fam ->
       if arity = 2 then begin
         let f0 = Array.unsafe_get fanin_slot off
         and f1 = Array.unsafe_get fanin_slot (off + 1) in
         let src0 = if Array.unsafe_get mstamp f0 = ep then mf else mg in
         let src1 = if Array.unsafe_get mstamp f1 = ep then mf else mg in
         let s0 = f0 * w and s1 = f1 * w in
         match fam with
         | 1 ->
           for j = 0 to gn - 1 do
             let r = bget src0 (s0 + j) land bget src1 (s1 + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
         | 2 ->
           for j = 0 to gn - 1 do
             let r = bget src0 (s0 + j) lor bget src1 (s1 + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
         | _ ->
           for j = 0 to gn - 1 do
             let r = bget src0 (s0 + j) lxor bget src1 (s1 + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
       end
       else if arity = 1 then begin
         let f0 = Array.unsafe_get fanin_slot off in
         let src0 = if Array.unsafe_get mstamp f0 = ep then mf else mg in
         let s0 = f0 * w in
         for j = 0 to gn - 1 do
           let r = bget src0 (s0 + j) lxor nmask in
           if r <> bget mg (d + j) then diff := true;
           bset mf (d + j) r
         done
       end
       else begin
         let f0 = Array.unsafe_get fanin_slot off in
         let src0 = if Array.unsafe_get mstamp f0 = ep then mf else mg in
         let s0 = f0 * w in
         for j = 0 to gn - 1 do
           bset mf (d + j) (bget src0 (s0 + j))
         done;
         for i = 1 to arity - 2 do
           let fi = Array.unsafe_get fanin_slot (off + i) in
           let srci = if Array.unsafe_get mstamp fi = ep then mf else mg in
           let si = fi * w in
           match fam with
           | 1 ->
             for j = 0 to gn - 1 do
               bset mf (d + j) (bget mf (d + j) land bget srci (si + j))
             done
           | 2 ->
             for j = 0 to gn - 1 do
               bset mf (d + j) (bget mf (d + j) lor bget srci (si + j))
             done
           | _ ->
             for j = 0 to gn - 1 do
               bset mf (d + j) (bget mf (d + j) lxor bget srci (si + j))
             done
         done;
         (* the last fan-in is folded together with the negation and
            the good-plane compare in one final pass *)
         let fl = Array.unsafe_get fanin_slot (off + arity - 1) in
         let srcl = if Array.unsafe_get mstamp fl = ep then mf else mg in
         let sl = fl * w in
         match fam with
         | 1 ->
           for j = 0 to gn - 1 do
             let r = bget mf (d + j) land bget srcl (sl + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
         | 2 ->
           for j = 0 to gn - 1 do
             let r = bget mf (d + j) lor bget srcl (sl + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
         | _ ->
           for j = 0 to gn - 1 do
             let r = bget mf (d + j) lxor bget srcl (sl + j) lxor nmask in
             if r <> bget mg (d + j) then diff := true;
             bset mf (d + j) r
           done
       end);
    if !diff then 2 else 1
  end

(* Position [p] evaluated with fan-in [pin] forced to the constant [v]
   and every other fan-in good — the multi-word injection for pin
   faults. At injection time no slot is stamped yet. Returns whether
   any written word differs from the good plane (fused into the final
   negation pass, like [eval_faulty_pos]). *)
let inject_pin t ms ~w ~gn p ~pin ~v =
  let fanin_slot = t.fanin_slot in
  let off = Array.unsafe_get t.fanin_off p in
  let arity = Array.unsafe_get t.fanin_off (p + 1) - off in
  let mg = ms.mgood and mf = ms.mfaulty in
  let code = Array.unsafe_get t.kind_code p in
  let d = (t.width + p) * w in
  let fam = code lsr 1 in
  let nmask = if code land 1 = 1 then word_mask else 0 in
  (if fam = 0 then
     for j = 0 to gn - 1 do
       bset mf (d + j) v
     done
   else begin
     (if pin = 0 then
        for j = 0 to gn - 1 do
          bset mf (d + j) v
        done
      else begin
        let s0 = Array.unsafe_get fanin_slot off * w in
        for j = 0 to gn - 1 do
          bset mf (d + j) (bget mg (s0 + j))
        done
      end);
     for i = 1 to arity - 1 do
       if i = pin then (
         match fam with
         | 1 ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) land v)
           done
         | 2 ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) lor v)
           done
         | _ ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) lxor v)
           done)
       else begin
         let si = Array.unsafe_get fanin_slot (off + i) * w in
         match fam with
         | 1 ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) land bget mg (si + j))
           done
         | 2 ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) lor bget mg (si + j))
           done
         | _ ->
           for j = 0 to gn - 1 do
             bset mf (d + j) (bget mf (d + j) lxor bget mg (si + j))
           done
       end
     done
   end);
  let diff = ref false in
  for j = 0 to gn - 1 do
    let r = bget mf (d + j) lxor nmask in
    if r <> bget mg (d + j) then diff := true;
    bset mf (d + j) r
  done;
  !diff

(* One fault against the word group currently in [ms.mgood]: a fault
   is detected when some observed signal differs in some word, exactly
   the seed criterion of [Fault_sim]. A quiet word of a marked slot
   carries its good value, so it neither detects nor propagates. A
   marked slot raises [mreach] to its furthest reader; positions
   ascend, so once the next cone position is past [mreach] the effect
   has converged.
   [fcone] is the fault's member cone, precomputed once per dispatch so
   the inner loop never touches the cone cache. *)
let[@inline] mark t ms slot =
  ms.mstamp.(slot) <- ms.mepoch;
  if t.obs_slot.(slot) then ms.mdetected <- true
  else if t.last_rd.(slot) > ms.mreach then ms.mreach <- t.last_rd.(slot)

let sim_fault_multi t ms ~w ~gn ~fcone (f : Fault.t) =
  ms.mepoch <- ms.mepoch + 1;
  ms.mdetected <- false;
  ms.mreach <- -1;
  let mg = ms.mgood and mf = ms.mfaulty in
  let live =
    match f.Fault.site with
    | Fault.Output id ->
      let slot = t.slot_of.(id) in
      (* a site no member reads and no member drives cannot matter *)
      if slot < 0 then false
      else begin
        let v = const_of f.Fault.stuck_at in
        let base = slot * w in
        (* write and compare in one pass: the stuck constant differs
           from the good plane iff some good word is not already v *)
        let d = ref false in
        for j = 0 to gn - 1 do
          if bget mg (base + j) <> v then d := true;
          bset mf (base + j) v
        done;
        if !d then begin
          mark t ms slot;
          true
        end
        else false
      end
    | Fault.Input_pin (gid, pin) ->
      let p = t.pos_of.(gid) in
      if p < 0 then false
      else begin
        let diff = inject_pin t ms ~w ~gn p ~pin ~v:(const_of f.Fault.stuck_at) in
        ms.mevals <- ms.mevals + gn;
        if diff then begin
          mark t ms (t.width + p);
          true
        end
        else false
      end
  in
  if live && not ms.mdetected then begin
    let len = Array.length fcone in
    let i = ref 0 in
    while
      (not ms.mdetected) && !i < len && Array.unsafe_get fcone !i <= ms.mreach
    do
      let p = Array.unsafe_get fcone !i in
      incr i;
      match eval_faulty_pos t ms ~w ~gn p with
      | 0 -> ()
      | r ->
        ms.mevals <- ms.mevals + gn;
        if r = 2 then mark t ms (t.width + p)
    done
  end;
  ms.mdetected

(* ------------------------------------------------------------------ *)
(* the batch interface                                                 *)

module Batch = struct
  type drop = Keep | Drop

  type patterns = Exhaustive | Batches of int array list

  type policy = {
    words : int;
    pool : Domain_pool.t option;
    drop : drop;
    cutover : int;
  }

  (* every front door runs these defaults *)
  let policy ?(words = 8) ?pool ?(drop = Drop) ?(cutover = 128) () =
    { words; pool; drop; cutover }

  type outcome = {
    results : (Fault.t * bool) list;
    n_faults : int;
    n_detected : int;
    coverage : float;
    batches : int;
    word_evals : int;
  }

  (* shared parallel dispatch: contiguous index-ordered fault chunks,
     serial below the cutover (per-worker scratch plus the fork/join
     barrier cost more than microsecond segments) *)
  let dispatch pol t nf worker =
    match pol.pool with
    | Some p
      when Domain_pool.jobs p > 1 && Array.length t.seg_order >= pol.cutover
      ->
      let jobs = Domain_pool.jobs p in
      Domain_pool.run p (fun wid ->
          let lo, hi = Domain_pool.chunk ~jobs ~n:nf wid in
          worker wid lo hi)
    | _ -> worker 0 0 nf

  let run_multi pol t src nb fs verdict evals =
    let w = pol.words in
    (* cones resolved once, outside the group x fault loops (the cache
       is already populated, so this is pure array plumbing) *)
    let fcones = Array.map (fun f -> cone t (root_of f)) fs in
    let worker wid lo hi =
      if lo < hi then begin
        let ms = make_mscratch t w in
        (* worker-local survivor list, compacted between word groups
           under Drop so late patterns only simulate live faults *)
        let active = Array.init (hi - lo) (fun i -> lo + i) in
        let nact = ref (hi - lo) in
        let g0 = ref 0 in
        while !g0 < nb && !nact > 0 do
          let gn = min w (nb - !g0) in
          eval_good_multi t ms ~w ~gn src ~g0:!g0;
          let keep = ref 0 in
          for i = 0 to !nact - 1 do
            let fi = active.(i) in
            if sim_fault_multi t ms ~w ~gn ~fcone:fcones.(fi) fs.(fi) then
              verdict.(fi) <- true;
            if pol.drop = Keep || not verdict.(fi) then begin
              active.(!keep) <- fi;
              incr keep
            end
          done;
          nact := !keep;
          g0 := !g0 + w
        done;
        evals.(wid) <- evals.(wid) + ms.mevals
      end
    in
    dispatch pol t (Array.length fs) worker

  let run_impl t pol ~patterns faults =
    if pol.words < 1 then
      invalid_arg "Fault_engine.Batch.run: words must be >= 1";
    if pol.cutover < 1 then
      invalid_arg "Fault_engine.Batch.run: cutover must be >= 1";
    let src, nb =
      match patterns with
      | Exhaustive ->
        if t.width > max_exhaustive_width then
          invalid_arg
            "Fault_engine.Batch.run: exhaustive width must be at most 20";
        (Closed t.width, exhaustive_batches ~width:t.width)
      | Batches l ->
        let pats = Array.of_list l in
        Array.iter
          (fun batch ->
            if Array.length batch <> t.width then
              invalid_arg "Fault_engine.Batch.run: batch arity mismatch")
          pats;
        (Given pats, Array.length pats)
    in
    let fs = Array.of_list faults in
    let nf = Array.length fs in
    (* populate the shared cone cache before going parallel *)
    Array.iter (fun f -> ignore (cone t (root_of f))) fs;
    let verdict = Array.make (max nf 1) false in
    let jobs =
      match pol.pool with Some p -> Domain_pool.jobs p | None -> 1
    in
    let evals = Array.make (max jobs 1) 0 in
    run_multi pol t src nb fs verdict evals;
    let n_detected = ref 0 in
    for i = 0 to nf - 1 do
      if verdict.(i) then incr n_detected
    done;
    {
      results = List.mapi (fun i f -> (f, verdict.(i))) faults;
      n_faults = nf;
      n_detected = !n_detected;
      coverage =
        (if nf = 0 then 1.0
         else float_of_int !n_detected /. float_of_int nf);
      batches = nb;
      word_evals = Array.fold_left ( + ) 0 evals;
    }

  (* The enabled check sits here, at the call boundary: the per-fault
     and per-word loops above carry no instrumentation at all, and the
     disabled path allocates no closure. *)
  let run t pol ~patterns faults =
    if not (Obs.enabled ()) then run_impl t pol ~patterns faults
    else
      Obs.span "fault_engine.batch" (fun () ->
          Obs.add Obs.Metric.Faults_simulated (List.length faults);
          let o = run_impl t pol ~patterns faults in
          Obs.add Obs.Metric.Fault_patterns (Gate.bits_per_word * o.batches);
          Obs.add Obs.Metric.Fault_word_evals o.word_evals;
          o)

  let run_segment pol sim seg ~patterns faults =
    run (create sim seg) pol ~patterns faults
end
