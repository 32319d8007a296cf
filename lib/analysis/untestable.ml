module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Gate = Ppet_netlist.Gate
module Fault = Ppet_bist.Fault

type reason = Unexcitable | Unobservable | Blocked

type classification = {
  testable : Fault.t list;
  untestable : (Fault.t * reason) list;
}

(* Scratch is stamped ([mark]/[obs] cells count as set iff they equal
   [stamp]) so a classify call clears nothing; only the segment-local
   root entries are written and reset, because the identity baseline is
   what boundary signals must read as. *)
type ctx = {
  c : Circuit.t;
  level : int array;
  lroot : int array;  (* identity except current segment's members *)
  lpar : int array;
  value : int array;  (* valid where mark = stamp *)
  mark : int array;   (* member-and-evaluated stamp *)
  obs : int array;    (* reaches-an-observed-signal stamp *)
  mutable stamp : int;
}

let ctx c =
  let n = Circuit.size c in
  {
    c;
    level = Circuit.levels c;
    lroot = Array.init n (fun v -> v);
    lpar = Array.make n 0;
    value = Array.make n 2;
    mark = Array.make n 0;
    obs = Array.make n 0;
    stamp = 0;
  }

let classify ctx seg faults =
  let c = ctx.c in
  ctx.stamp <- ctx.stamp + 1;
  let st = ctx.stamp in
  let members = seg.Segment.members in
  Array.iter (fun m -> ctx.mark.(m) <- st) members;
  let val_of v = if ctx.mark.(v) = st then ctx.value.(v) else Ternary.unknown in
  (* Segment-local ternary evaluation in combinational-level order.
     Every segment input keeps its own root: the test hardware drives
     inputs independently and exhaustively, so equalities that hold only
     outside the segment must not be used. Chains internal to the
     segment may be followed. *)
  let order = Array.copy members in
  Array.sort
    (fun a b ->
      let la = ctx.level.(a) and lb = ctx.level.(b) in
      if la <> lb then compare la lb else compare a b)
    order;
  Array.iter
    (fun u ->
      let nd = Circuit.node c u in
      let fi = nd.Circuit.fanins in
      (match nd.Circuit.kind with
       | Gate.Buff | Gate.Not ->
         let f = fi.(0) in
         ctx.lroot.(u) <- ctx.lroot.(f);
         ctx.lpar.(u) <-
           ctx.lpar.(f)
           lxor (match nd.Circuit.kind with Gate.Not -> 1 | _ -> 0)
       | _ -> ());
      ctx.value.(u) <-
        Ternary.eval_node ~kind:nd.Circuit.kind ~arity:(Array.length fi)
          ~value:(fun i -> val_of fi.(i))
          ~root:(fun i -> ctx.lroot.(fi.(i)))
          ~parity:(fun i -> ctx.lpar.(fi.(i))))
    order;
  (* Backward reachability from the observed signals through member
     gates: a fault effect at a signal outside this set can never reach
     an observation point (the cone Fault_sim propagates through is
     exactly the member gates). *)
  let stack = Array.make (max 1 (Array.length members)) 0 in
  let sp = ref 0 in
  Array.iter
    (fun o ->
      if ctx.obs.(o) <> st then begin
        ctx.obs.(o) <- st;
        stack.(!sp) <- o;
        incr sp
      end)
    seg.Segment.observed;
  while !sp > 0 do
    decr sp;
    let g = stack.(!sp) in
    Array.iter
      (fun f ->
        if ctx.obs.(f) <> st then begin
          ctx.obs.(f) <- st;
          if ctx.mark.(f) = st then begin
            stack.(!sp) <- f;
            incr sp
          end
        end)
      (Circuit.node c g).Circuit.fanins
  done;
  (* Pin blocking: the reading gate's ternary output is the same
     constant with the pin forced either way, so neither polarity can
     ever move the gate. The other pins carry fault-free values (a
     combinational path from the gate back into its own fan-in would be
     a cycle), so their ternary facts apply to the faulty machine too. *)
  let pin_blocked g p =
    let nd = Circuit.node c g in
    let fi = nd.Circuit.fanins in
    let out forced =
      Ternary.eval_node ~kind:nd.Circuit.kind ~arity:(Array.length fi)
        ~value:(fun i -> if i = p then forced else val_of fi.(i))
        ~root:(fun i -> if i = p then -1 else ctx.lroot.(fi.(i)))
        ~parity:(fun i -> if i = p then 0 else ctx.lpar.(fi.(i)))
    in
    let o0 = out Ternary.zero in
    o0 <> Ternary.unknown && o0 = out Ternary.one
  in
  let stuck f = if f.Fault.stuck_at then Ternary.one else Ternary.zero in
  let classify_one (f : Fault.t) =
    match f.Fault.site with
    | Fault.Output v ->
      if val_of v = stuck f then Some Unexcitable
      else if ctx.obs.(v) <> st then Some Unobservable
      else None
    | Fault.Input_pin (g, p) ->
      let d = (Circuit.node c g).Circuit.fanins.(p) in
      if val_of d = stuck f then Some Unexcitable
      else if ctx.obs.(g) <> st then Some Unobservable
      else if pin_blocked g p then Some Blocked
      else None
  in
  let testable = ref [] and untestable = ref [] in
  List.iter
    (fun f ->
      match classify_one f with
      | None -> testable := f :: !testable
      | Some r -> untestable := (f, r) :: !untestable)
    faults;
  (* restore the identity-root baseline for the next segment *)
  Array.iter
    (fun m ->
      ctx.lroot.(m) <- m;
      ctx.lpar.(m) <- 0)
    members;
  { testable = List.rev !testable; untestable = List.rev !untestable }

let count cls = (List.length cls.testable, List.length cls.untestable)
