module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Fault = Ppet_bist.Fault
module Simulator = Ppet_bist.Simulator
module Gf2_poly = Ppet_bist.Gf2_poly

type report = {
  n_faults : int;
  n_detected : int;
  coverage : float;
  burst_cycles : int;
  truncated : bool;
  scan_bits : int;
  undetected : Fault.t list;
}

let word_mask = max_int
let lanes_per_pass = Ppet_netlist.Gate.bits_per_word - 1 (* lane 0 = good *)

(* Bit-sliced Galois MISR: state.(i) holds bit i of every lane's register.
   All lanes share the taps; each lane evolves on its own MSB — which is
   exactly what the word-level xor expresses. *)
module Sliced_misr = struct
  type t = { poly : int; width : int; state : int array }

  let create ~width = { poly = Gf2_poly.primitive width; width; state = Array.make width 0 }

  let absorb t data =
    (* data.(i) = bit-sliced input bit i (missing bits = 0) *)
    let out = t.state.(t.width - 1) in
    let next = Array.make t.width 0 in
    for i = t.width - 1 downto 1 do
      next.(i) <- t.state.(i - 1) lxor (if t.poly land (1 lsl i) <> 0 then out else 0)
    done;
    next.(0) <- out (* tap 0 always set in a primitive polynomial *);
    for i = 0 to t.width - 1 do
      t.state.(i) <- (next.(i) lxor data.(i)) land word_mask
    done

  let state t = Array.copy t.state
end

(* Remap a fault whose site uses original node ids onto the testable
   netlist by signal name, through the testable netlist's name index. *)
let remap_fault original find f =
  let name id = (Circuit.node original id).Circuit.name in
  let resolve id =
    match find (name id) with
    | Some id' -> id'
    | None ->
      invalid_arg
        (Printf.sprintf "Session.run: signal %S not in the testable netlist"
           (name id))
  in
  match f.Fault.site with
  | Fault.Output id -> { f with Fault.site = Fault.Output (resolve id) }
  | Fault.Input_pin (id, pin) ->
    { f with Fault.site = Fault.Input_pin (resolve id, pin) }

let run ?(max_burst = 1024) ?faults ?(observe_pos = true) ?pool (t : Testable.t) =
  let original = t.Testable.original in
  let testable = t.Testable.circuit in
  let fault_list =
    match faults with
    | Some fs -> fs
    | None -> Fault.collapse original (Fault.all_of_circuit original)
  in
  let sim = Simulator.create testable in
  let n = Circuit.size testable in
  let dffs = Circuit.dffs testable in
  let wmax =
    List.fold_left
      (fun acc (g : Testable.cbit_group) -> max acc g.Testable.width)
      1 t.Testable.groups
  in
  let full = if wmax >= 30 then max_int else 1 lsl wmax in
  (* the PSA-everywhere session has data-dependent patterns, so running
     longer than 2^wmax keeps adding new stimulus; truncation is only
     flagged relative to the exhaustive count *)
  let burst = max_burst in
  let find = Circuit.name_index testable in
  let pin name = match find name with Some id -> id | None -> raise Not_found in
  let cell_ids = List.map (fun cl -> pin cl.Testable.q_name) t.Testable.cells in
  (* control pins *)
  let test_en = pin t.Testable.test_en
  and fb_en = pin t.Testable.fb_en
  and psa_en = pin t.Testable.psa_en
  and scan_in = pin t.Testable.scan_in in
  (* deterministic functional input stimulus, shared across passes:
     one bit per PI per cycle, broadcast to every lane, so the good
     machine and each faulty one see the same inputs *)
  let rng_master = Ppet_digraph.Prng.create 0x5E55L in
  let stimulus =
    Array.init burst (fun _ ->
        Array.map
          (fun _ -> if Ppet_digraph.Prng.bool rng_master then word_mask else 0)
          original.Circuit.inputs)
  in
  let passes =
    (* single pass over the fault list: open a fresh lane batch every
       [lanes_per_pass] faults (the last one ragged) *)
    let rev = ref [] and cur = ref [] and k = ref 0 in
    List.iter
      (fun f ->
        if !k = lanes_per_pass then begin
          rev := List.rev !cur :: !rev;
          cur := [];
          k := 0
        end;
        cur := f :: !cur;
        incr k)
      fault_list;
    if !cur <> [] then rev := List.rev !cur :: !rev;
    Array.of_list (List.rev !rev)
  in
  (* One pass = one bit-sliced burst over up to [lanes_per_pass] faults.
     Passes are independent (they share only read-only structures), so
     they shard across the pool's domains; the per-pass hit lists are
     merged in pass order, keeping the report identical to the serial
     run. *)
  let run_pass batch =
      (* per-node output masks and per-pin masks for this pass *)
      let out_clear = Array.make n 0 and out_set = Array.make n 0 in
      let pin_masks = Hashtbl.create 16 in
      List.iteri
        (fun lane_minus_1 f ->
          let lane_bit = 1 lsl (lane_minus_1 + 1) in
          let f' = remap_fault original find f in
          match f'.Fault.site with
          | Fault.Output id ->
            if f'.Fault.stuck_at then out_set.(id) <- out_set.(id) lor lane_bit
            else out_clear.(id) <- out_clear.(id) lor lane_bit
          | Fault.Input_pin (id, p) ->
            let c0, s0 =
              try Hashtbl.find pin_masks (id, p) with Not_found -> (0, 0)
            in
            if f'.Fault.stuck_at then Hashtbl.replace pin_masks (id, p) (c0, s0 lor lane_bit)
            else Hashtbl.replace pin_masks (id, p) (c0 lor lane_bit, s0))
        batch;
      let apply_output id v =
        (v land lnot out_clear.(id)) lor out_set.(id) land word_mask
      in
      (* state: all zero, then load the CBIT seeds in parallel (stands for
         the global scan initialisation, validated at gate level by the
         test suite) *)
      let state = Array.make n 0 in
      List.iter
        (fun (g : Testable.cbit_group) ->
          match g.Testable.cell_names with
          | first :: _ -> state.(pin first) <- word_mask
          | [] -> ())
        t.Testable.groups;
      let observer = Sliced_misr.create ~width:16 in
      let values = Array.make n 0 in
      for cycle = 0 to burst - 1 do
        Array.fill values 0 n 0;
        (* sources first, with their stuck overrides applied before any
           gate reads them *)
        Array.iteri
          (fun i p -> values.(p) <- apply_output p stimulus.(cycle).(i))
          original.Circuit.inputs;
        values.(test_en) <- word_mask;
        values.(fb_en) <- word_mask;
        values.(psa_en) <- word_mask;
        values.(scan_in) <- 0;
        Array.iter (fun d -> values.(d) <- apply_output d state.(d)) dffs;
        (* evaluate with fault injection *)
        Array.iter
          (fun id ->
            let nd = Circuit.node testable id in
            let ins = Array.map (fun f -> values.(f)) nd.Circuit.fanins in
            Array.iteri
              (fun p _ ->
                match Hashtbl.find_opt pin_masks (id, p) with
                | Some (c, s) -> ins.(p) <- ((ins.(p) land lnot c) lor s) land word_mask
                | None -> ())
              ins;
            values.(id) <- apply_output id (Gate.eval_word nd.Circuit.kind ins))
          (Simulator.order sim);
        (* next register states *)
        Array.iter
          (fun d ->
            state.(d) <- apply_output d values.((Circuit.node testable d).Circuit.fanins.(0)))
          dffs;
        if observe_pos then begin
          let data = Array.make 16 0 in
          Array.iteri
            (fun i po -> data.(i mod 16) <- data.(i mod 16) lxor values.(po))
            testable.Circuit.outputs;
          Sliced_misr.absorb observer data
        end
      done;
      (* verdict per lane: any signature bit differing from lane 0 *)
      let diff = ref 0 in
      let fold w =
        (* lanes whose bit differs from bit 0 of w *)
        let good = if w land 1 = 1 then word_mask else 0 in
        diff := !diff lor (w lxor good)
      in
      List.iter (fun id -> fold state.(id)) cell_ids;
      if observe_pos then Array.iter fold (Sliced_misr.state observer);
      List.filteri
        (fun lane_minus_1 _ -> !diff land (1 lsl (lane_minus_1 + 1)) <> 0)
        batch
  in
  let hits = Array.make (Array.length passes) [] in
  (match pool with
   | None -> Array.iteri (fun i batch -> hits.(i) <- run_pass batch) passes
   | Some p ->
     let jobs = Ppet_parallel.Domain_pool.jobs p in
     let n = Array.length passes in
     Ppet_parallel.Domain_pool.run p (fun w ->
         let lo, hi = Ppet_parallel.Domain_pool.chunk ~jobs ~n w in
         for i = lo to hi - 1 do
           hits.(i) <- run_pass passes.(i)
         done));
  let detected = Hashtbl.create (List.length fault_list) in
  Array.iter (List.iter (fun f -> Hashtbl.replace detected f ())) hits;
  let n_faults = List.length fault_list in
  let n_detected = Hashtbl.length detected in
  {
    n_faults;
    n_detected;
    coverage =
      (if n_faults = 0 then 1.0
       else float_of_int n_detected /. float_of_int n_faults);
    burst_cycles = burst;
    truncated = burst < full;
    scan_bits = Testable.scan_length t;
    undetected =
      List.filter (fun f -> not (Hashtbl.mem detected f)) fault_list;
  }
