module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

let inf = max_int / 4
let sat_add a b = if a >= inf || b >= inf then inf else Int.min inf (a + b)

(* Fold the generalized XOR controllability pairwise:
   combining (a0, a1) with the next pin (b0, b1) gives
   0 via equal parities, 1 via opposite ones. *)
let xor_combine (a0, a1) (b0, b1) =
  ( Int.min (sat_add a0 b0) (sat_add a1 b1),
    Int.min (sat_add a0 b1) (sat_add a1 b0) )

let controllability ?pool sched c ~constants =
  let pairs =
    Dataflow.solve ?pool sched ~direction:Dataflow.Forward
      ~init:(fun _ -> (inf, inf))
      ~transfer:(fun get v ->
        match Ternary.value_of_int constants.(v) with
        | Ternary.Zero -> (0, inf)
        | Ternary.One -> (inf, 0)
        | Ternary.Unknown -> (
          let nd = Circuit.node c v in
          let fi = nd.Circuit.fanins in
          match nd.Circuit.kind with
          | Gate.Input -> (1, 1)
          | Gate.Dff | Gate.Buff ->
            let a0, a1 = get fi.(0) in
            (sat_add a0 1, sat_add a1 1)
          | Gate.Not ->
            let a0, a1 = get fi.(0) in
            (sat_add a1 1, sat_add a0 1)
          | Gate.And | Gate.Nand ->
            let all1 = ref 0 and min0 = ref inf in
            for i = 0 to Array.length fi - 1 do
              let f0, f1 = get fi.(i) in
              all1 := sat_add !all1 f1;
              if f0 < !min0 then min0 := f0
            done;
            let c0 = sat_add !min0 1 and c1 = sat_add !all1 1 in
            if nd.Circuit.kind = Gate.And then (c0, c1) else (c1, c0)
          | Gate.Or | Gate.Nor ->
            let all0 = ref 0 and min1 = ref inf in
            for i = 0 to Array.length fi - 1 do
              let f0, f1 = get fi.(i) in
              all0 := sat_add !all0 f0;
              if f1 < !min1 then min1 := f1
            done;
            let c0 = sat_add !all0 1 and c1 = sat_add !min1 1 in
            if nd.Circuit.kind = Gate.Or then (c0, c1) else (c1, c0)
          | Gate.Xor | Gate.Xnor ->
            let acc = ref (get fi.(0)) in
            for i = 1 to Array.length fi - 1 do
              acc := xor_combine !acc (get fi.(i))
            done;
            let a0, a1 = !acc in
            let c0 = sat_add a0 1 and c1 = sat_add a1 1 in
            if nd.Circuit.kind = Gate.Xor then (c0, c1) else (c1, c0)))
      ~equal:(fun (a0, a1) (b0, b1) -> a0 = b0 && a1 = b1)
  in
  (Array.map fst pairs, Array.map snd pairs)

(* The side cost a fault effect pays to pass pin [p] of reader [g]: all
   other pins must hold their non-controlling value. *)
let observability ?pool sched c ~cc0 ~cc1 =
  let fanouts = c.Circuit.fanouts in
  let is_po = Array.make (Circuit.size c) false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;
  Dataflow.solve ?pool sched ~direction:Dataflow.Backward
    ~init:(fun _ -> inf)
    ~transfer:(fun get v ->
      let best = ref (if is_po.(v) then 0 else inf) in
      let fo = fanouts.(v) in
      for k = 0 to Array.length fo - 1 do
        let g = fo.(k) in
        let cog = get g in
        if cog < inf then begin
          let nd = Circuit.node c g in
          let fi = nd.Circuit.fanins in
          match nd.Circuit.kind with
          | Gate.Input -> ()
          | Gate.Dff | Gate.Buff | Gate.Not ->
            let cost = sat_add cog 1 in
            if cost < !best then best := cost
          | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor
            | Gate.Xnor) as kind ->
            for p = 0 to Array.length fi - 1 do
              if fi.(p) = v then begin
                let cost = ref (sat_add cog 1) in
                for q = 0 to Array.length fi - 1 do
                  if q <> p then begin
                    let f = fi.(q) in
                    let side =
                      match kind with
                      | Gate.And | Gate.Nand -> cc1.(f)
                      | Gate.Or | Gate.Nor -> cc0.(f)
                      | _ -> Int.min cc0.(f) cc1.(f)
                    in
                    cost := sat_add !cost side
                  end
                done;
                if !cost < !best then best := !cost
              end
            done
        end
      done;
      !best)
    ~equal:Int.equal

type t = {
  cc0 : int array;
  cc1 : int array;
  co : int array;
}

let compute ?pool sched c ~constants =
  let cc0, cc1 = controllability ?pool sched c ~constants in
  let co = observability ?pool sched c ~cc0 ~cc1 in
  { cc0; cc1; co }
