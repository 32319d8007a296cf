(* The exhaustive sequence as an explicit batch list — every vector
   0 .. 2^width - 1 in counting order, packed one bit at a time. This is
   the oracle the engine's closed form (Fault_engine.exhaustive_word)
   is checked against, and the pattern set handed to the Fault_sim seed
   oracle wherever a test needs exhaustive verdicts. *)
let exhaustive_patterns ~width =
  Ppet_bist.Fault_engine.pack_vectors ~width (List.init (1 lsl width) Fun.id)
