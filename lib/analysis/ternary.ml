module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

type value = Zero | One | Unknown

let zero = 0
let one = 1
let unknown = 2

let value_of_int = function
  | 0 -> Zero
  | 1 -> One
  | _ -> Unknown

type roots = { root : int array; parity : int array }

(* Chase BUF/NOT chains iteratively (no recursion: synthetic profiles
   can carry long inverter ladders). [-2] marks a node currently on the
   walk, so a pure inverter loop — illegal in a validated circuit, but
   cheap to survive — anchors at its first node instead of spinning. *)
let roots c =
  let n = Circuit.size c in
  let root = Array.make n (-1) in
  let parity = Array.make n 0 in
  let chain = ref [] in
  for v0 = 0 to n - 1 do
    if root.(v0) < 0 then begin
      chain := [];
      let v = ref v0 in
      let stop = ref false in
      while not !stop do
        if root.(!v) >= 0 then stop := true
        else begin
          let nd = Circuit.node c !v in
          match nd.Circuit.kind with
          | Gate.Buff | Gate.Not ->
            if root.(!v) = -2 then begin
              root.(!v) <- !v;
              parity.(!v) <- 0;
              stop := true
            end
            else begin
              root.(!v) <- -2;
              chain := !v :: !chain;
              v := nd.Circuit.fanins.(0)
            end
          | _ ->
            root.(!v) <- !v;
            parity.(!v) <- 0;
            stop := true
        end
      done;
      (* head of [chain] is nearest the anchor: unwind in list order *)
      List.iter
        (fun u ->
          if root.(u) = -2 then begin
            let nd = Circuit.node c u in
            let f = nd.Circuit.fanins.(0) in
            root.(u) <- root.(f);
            parity.(u) <-
              parity.(f)
              lxor (match nd.Circuit.kind with Gate.Not -> 1 | _ -> 0)
          end)
        !chain
    end
  done;
  { root; parity }

let negate = function 0 -> 1 | 1 -> 0 | x -> x

(* One ternary gate transfer over abstract pins: [value i] is the
   ternary value of pin [i], [root i]/[parity i] its canonical signal (a
   negative root marks an independent pin that never matches another —
   how the pin-blocking check injects a forced constant). *)
let eval_node ~kind ~arity ~value ~root ~parity =
  let same_root i j = root i >= 0 && root i = root j in
  match kind with
  | Gate.Input -> unknown
  | Gate.Dff | Gate.Buff -> value 0
  | Gate.Not -> negate (value 0)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let controlling =
      match kind with Gate.And | Gate.Nand -> 0 | _ -> 1
    in
    let neg = match kind with Gate.Nand | Gate.Nor -> true | _ -> false in
    let hit = ref false in
    let all_noncontrolling = ref true in
    for i = 0 to arity - 1 do
      let x = value i in
      if x = controlling then hit := true
      else if x = unknown then all_noncontrolling := false
    done;
    let out =
      if !hit then controlling
      else if !all_noncontrolling then 1 - controlling
      else begin
        (* a signal and its own inverse among the unknown pins force the
           controlling value no matter what the signal does *)
        let pair = ref false in
        for i = 0 to arity - 1 do
          if (not !pair) && value i = unknown then
            for j = i + 1 to arity - 1 do
              if
                (not !pair)
                && same_root i j
                && parity i <> parity j
                && value j = unknown
              then pair := true
            done
        done;
        if !pair then controlling else unknown
      end
    in
    if neg then negate out else out
  | Gate.Xor | Gate.Xnor ->
    let acc = ref (match kind with Gate.Xnor -> 1 | _ -> 0) in
    for i = 0 to arity - 1 do
      let x = value i in
      if x <> unknown then acc := !acc lxor x
    done;
    (* unknown pins cancel pairwise when they share a root: x XOR x' is
       the XOR of the chain parities, a constant *)
    let used = Array.make (max arity 1) false in
    let open_term = ref false in
    for i = 0 to arity - 1 do
      if (not used.(i)) && value i = unknown then begin
        let partner = ref (-1) in
        for j = i + 1 to arity - 1 do
          if
            !partner < 0
            && (not used.(j))
            && same_root i j
            && value j = unknown
          then partner := j
        done;
        match !partner with
        | -1 -> open_term := true
        | j ->
          used.(i) <- true;
          used.(j) <- true;
          acc := !acc lxor (parity i lxor parity j)
      end
    done;
    if !open_term then unknown else !acc

(* Every pin reads its canonical signal: the root's value through the
   chain parity. Read pin by pin, a gate can see x already settled to 1
   while the inverter chain to its other pin still says Unknown, so
   AND(x, NOT x) falls back from 0 to Unknown — a non-monotone step
   that a flip-flop loop can repeat forever. Through the root both pins
   move together and each vertex changes at most once. *)
let eval c (r : roots) get v =
  let nd = Circuit.node c v in
  let fi = nd.Circuit.fanins in
  let root i = r.root.(fi.(i)) and parity i = r.parity.(fi.(i)) in
  eval_node ~kind:nd.Circuit.kind ~arity:(Array.length fi)
    ~value:(fun i ->
      let f = fi.(i) in
      let x = get r.root.(f) in
      if r.parity.(f) = 1 then negate x else x)
    ~root ~parity

let constants ?pool sched c =
  let r = roots c in
  Dataflow.solve ?pool sched ~direction:Dataflow.Forward
    ~init:(fun _ -> unknown)
    ~transfer:(fun get v -> eval c r get v)
    ~equal:Int.equal

let initializable ?pool sched c ~constants =
  Dataflow.solve ?pool sched ~direction:Dataflow.Forward
    ~init:(fun _ -> false)
    ~transfer:(fun get v ->
      if constants.(v) <> unknown then true
      else
        let nd = Circuit.node c v in
        match nd.Circuit.kind with
        | Gate.Input -> true
        | Gate.Dff -> get nd.Circuit.fanins.(0)
        | _ -> Array.for_all get nd.Circuit.fanins)
    ~equal:Bool.equal
