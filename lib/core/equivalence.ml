module Circuit = Ppet_netlist.Circuit
module Simulator = Ppet_bist.Simulator
module Prng = Ppet_digraph.Prng

type verdict = {
  equivalent : bool;
  cycles_run : int;
  first_mismatch : (int * string) option;
}

let word_mask = max_int

let check_bool ?(cycles = 32) ?(seed = 0xE9L) ?(force_right = []) left right =
  if Array.length left.Circuit.outputs <> Array.length right.Circuit.outputs
  then invalid_arg "Equivalence.check_bool: output counts differ";
  let rng = Prng.create seed in
  let rand_word () = Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int word_mask)) in
  let sim_l = Simulator.create left and sim_r = Simulator.create right in
  let dffs_l = Circuit.dffs left and dffs_r = Circuit.dffs right in
  let state_l = ref (Array.make (Array.length dffs_l) 0) in
  let state_r = ref (Array.make (Array.length dffs_r) 0) in
  (* shared inputs by name; right-only inputs forced *)
  let right_forced = Hashtbl.create 8 in
  List.iter
    (fun (n, b) -> Hashtbl.replace right_forced n (if b then word_mask else 0))
    force_right;
  let left_index = Hashtbl.create 16 in
  Array.iteri
    (fun i p -> Hashtbl.replace left_index (Circuit.node left p).Circuit.name i)
    left.Circuit.inputs;
  let mismatch = ref None in
  let cycle = ref 0 in
  while !mismatch = None && !cycle < cycles do
    let pi_l =
      Array.map (fun _ -> rand_word ()) left.Circuit.inputs
    in
    let pi_r =
      Array.map
        (fun p ->
          let name = (Circuit.node right p).Circuit.name in
          match Hashtbl.find_opt right_forced name with
          | Some w -> w
          | None ->
            (match Hashtbl.find_opt left_index name with
             | Some i -> pi_l.(i)
             | None -> 0))
        right.Circuit.inputs
    in
    let next_l, po_l = Simulator.step sim_l ~state:!state_l ~pi:pi_l in
    let next_r, po_r = Simulator.step sim_r ~state:!state_r ~pi:pi_r in
    state_l := next_l;
    state_r := next_r;
    Array.iteri
      (fun k w ->
        if !mismatch = None && w <> po_r.(k) then
          mismatch :=
            Some (!cycle, (Circuit.node left left.Circuit.outputs.(k)).Circuit.name))
      po_l;
    incr cycle
  done;
  { equivalent = !mismatch = None; cycles_run = !cycle; first_mismatch = !mismatch }
