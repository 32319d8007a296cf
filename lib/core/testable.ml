module Netgraph = Ppet_digraph.Netgraph
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Gf2_poly = Ppet_bist.Gf2_poly

type cell = {
  net : int;
  driver : int;
  q_name : string;
  converted : bool;
  group_index : int;
  bit_index : int;
}

type cbit_group = {
  partition : int;
  width : int;
  poly : int;
  cell_names : string list;
}

type t = {
  circuit : Circuit.t;
  original : Circuit.t;
  cells : cell list;
  groups : cbit_group list;
  test_en : string;
  fb_en : string;
  psa_en : string;
  scan_in : string;
  added_area : float;
}

let prefix = "PPET_"

let test_en_name = prefix ^ "TEST_EN"
let fb_en_name = prefix ^ "FB_EN"
let psa_en_name = prefix ^ "PSA_EN"
let scan_in_name = prefix ^ "SCAN_IN"
let ntest_name = prefix ^ "NTEST"
let nfb_name = prefix ^ "NFB"

(* Group the cut nets into CBITs: a cell joins the CBIT of the lowest-
   numbered partition its net enters. *)
let plan_groups (r : Merced.result) =
  let g = r.Merced.graph in
  let part_of = r.Merced.assignment.Assign.partition_of in
  let by_partition = Hashtbl.create 16 in
  List.iter
    (fun net ->
      let src = Netgraph.net_src g net in
      let home = part_of.(src) in
      let target = ref max_int in
      Array.iter
        (fun sink ->
          let p = part_of.(sink) in
          if p <> home && p < !target then target := p)
        (Netgraph.net_sinks g net);
      let p = if !target = max_int then home else !target in
      let cur = try Hashtbl.find by_partition p with Not_found -> [] in
      Hashtbl.replace by_partition p (net :: cur))
    r.Merced.assignment.Assign.cut_nets;
  Hashtbl.fold (fun p nets acc -> (p, List.sort compare nets) :: acc) by_partition []
  |> List.sort compare

let gate_name k = prefix ^ "G" ^ string_of_int k

(* The netlist layout is fixed, so every id is known up front: the
   original primary inputs, the four controls, NTEST and NFB (when there
   are cells), the original logic in node order (converted flip-flops
   move into their cells), then the cells group by group. PPET_G numbers
   go to the muxes first, in cell order, and then to the cell gates in
   emission order; PPET_Q numbers to the fresh cells in cell order. *)
let insert (r : Merced.result) =
  Ppet_obs.Obs.span "testable.insert" @@ fun () ->
  let c = r.Merced.circuit in
  let g = r.Merced.graph in
  Array.iter
    (fun (nd : Circuit.node) ->
      if String.starts_with ~prefix nd.Circuit.name then
        invalid_arg
          (Printf.sprintf "Testable.insert: signal %S clashes with the PPET_ namespace"
             nd.Circuit.name))
    c.Circuit.nodes;
  let groups_plan = plan_groups r in
  let q_seq = ref 0 in
  let cells_by_group =
    List.mapi
      (fun group_index (_, nets) ->
        List.mapi
          (fun bit_index net ->
            let driver = Netgraph.net_src g net in
            let converted = (Circuit.node c driver).Circuit.kind = Gate.Dff in
            let q_name =
              if converted then (Circuit.node c driver).Circuit.name
              else begin
                incr q_seq;
                prefix ^ "Q" ^ string_of_int !q_seq
              end
            in
            { net; driver; q_name; converted; group_index; bit_index })
          nets)
      groups_plan
  in
  let groups =
    List.map2
      (fun (partition, _) cell_list ->
        let width = List.length cell_list in
        {
          partition;
          width;
          poly = Gf2_poly.primitive (max 1 (min width 32));
          cell_names = List.map (fun cl -> cl.q_name) cell_list;
        })
      groups_plan cells_by_group
  in
  let all_cells = List.concat cells_by_group in
  let n_orig = Circuit.size c in
  (* the muxes take the first gate numbers; the last fresh cell of a
     driver names its mux, as a later assignment would overwrite *)
  let mux_number = Array.make n_orig 0 in
  let n_gates = ref 0 in
  List.iter
    (fun cl ->
      if not cl.converted then begin
        incr n_gates;
        mux_number.(cl.driver) <- !n_gates
      end)
    all_cells;
  let cell_of_dff = Array.make n_orig (-1) in
  List.iteri
    (fun k cl -> if cl.converted then cell_of_dff.(cl.driver) <- k)
    all_cells;
  let has_cells = all_cells <> [] in
  let n_pi = Array.length c.Circuit.inputs in
  let test_en = n_pi and fb_en = n_pi + 1 and psa_en = n_pi + 2 in
  let scan_in = n_pi + 3 in
  let ntest = n_pi + 4 and nfb = n_pi + 5 in
  (* ids: original logic after the controls, then the cells *)
  let new_id = Array.make n_orig (-1) in
  Array.iteri (fun k pi -> new_id.(pi) <- k) c.Circuit.inputs;
  let next = ref (if has_cells then n_pi + 6 else n_pi + 4) in
  Array.iter
    (fun (nd : Circuit.node) ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | Gate.Dff when cell_of_dff.(nd.Circuit.id) >= 0 -> ()
      | Gate.Dff | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or
      | Gate.Nor | Gate.Xor | Gate.Xnor ->
        new_id.(nd.Circuit.id) <- !next;
        incr next)
    c.Circuit.nodes;
  let cells_start = !next in
  let cells = Array.of_list all_cells in
  let polys = Array.of_list (List.map (fun grp -> grp.poly) groups) in
  let taps =
    Array.map
      (fun cl ->
        let poly = polys.(cl.group_index) in
        cl.bit_index < Gf2_poly.degree poly && poly land (1 lsl cl.bit_index) <> 0)
      cells
  in
  (* cell layout: per group the feedback and scan gates, then per cell
     [xor], psa, core, normal, test, d_in, Q, and for fresh cells
     pass, hold, mux *)
  let q_id = Array.make (Array.length cells) 0 in
  let mux_id = Array.make n_orig (-1) in
  let k = ref 0 in
  List.iter
    (fun cell_list ->
      if cell_list <> [] then next := !next + 2;
      List.iter
        (fun cl ->
          if taps.(!k) then incr next;
          q_id.(!k) <- !next + 5;
          next := !next + 6;
          if cl.converted then new_id.(cl.driver) <- q_id.(!k)
          else begin
            next := !next + 3;
            mux_id.(cl.driver) <- !next - 1
          end;
          incr k)
        cell_list)
    cells_by_group;
  let n = !next in
  let rewired id = if mux_id.(id) >= 0 then mux_id.(id) else new_id.(id) in
  let placeholder =
    { Circuit.id = 0; name = ""; kind = Gate.Input; fanins = [||] }
  in
  let nodes = Array.make n placeholder in
  let put id name kind fanins = nodes.(id) <- { Circuit.id; name; kind; fanins } in
  Array.iter
    (fun pi -> put new_id.(pi) (Circuit.node c pi).Circuit.name Gate.Input [||])
    c.Circuit.inputs;
  put test_en test_en_name Gate.Input [||];
  put fb_en fb_en_name Gate.Input [||];
  put psa_en psa_en_name Gate.Input [||];
  put scan_in scan_in_name Gate.Input [||];
  if has_cells then begin
    put ntest ntest_name Gate.Not [| test_en |];
    put nfb nfb_name Gate.Not [| fb_en |]
  end;
  Array.iter
    (fun (nd : Circuit.node) ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | Gate.Dff when cell_of_dff.(nd.Circuit.id) >= 0 -> ()
      | Gate.Dff | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or
      | Gate.Nor | Gate.Xor | Gate.Xnor ->
        put new_id.(nd.Circuit.id) nd.Circuit.name nd.Circuit.kind
          (Array.map rewired nd.Circuit.fanins))
    c.Circuit.nodes;
  (* the test cells, group by group, chained for scan *)
  let id = ref cells_start in
  let emit name kind fanins =
    put !id name kind fanins;
    incr id;
    !id - 1
  in
  let fresh kind fanins =
    incr n_gates;
    emit (gate_name !n_gates) kind fanins
  in
  let scan_prev = ref scan_in in
  let k = ref 0 in
  List.iter
    (fun cell_list ->
      match cell_list with
      | [] -> ()
      | _ :: _ ->
        let first = !k in
        let width = List.length cell_list in
        let msb = q_id.(first + width - 1) in
        (* feedback gated by FB_EN, shared across the group *)
        let fb_gated = fresh Gate.And [| msb; fb_en |] in
        (* the group's scan entry: previous chain bit, blocked when the
           feedback network is active (TPG/PSA shift in zero) *)
        let scan_gate = fresh Gate.And [| !scan_prev; nfb |] in
        List.iter
          (fun cl ->
            let i = cl.bit_index in
            (* functional data arriving at the cell *)
            let d_sig =
              if cl.converted then rewired (Circuit.node c cl.driver).Circuit.fanins.(0)
              else new_id.(cl.driver)
            in
            (* test-mode next state *)
            let shift_src = if i = 0 then scan_gate else q_id.(!k - 1) in
            let after_fb =
              if taps.(!k) then fresh Gate.Xor [| shift_src; fb_gated |]
              else shift_src
            in
            let psa_term = fresh Gate.And [| d_sig; psa_en |] in
            let core = fresh Gate.Xor [| after_fb; psa_term |] in
            (* mode selection in front of the register *)
            let normal_path = fresh Gate.And [| d_sig; ntest |] in
            let test_path = fresh Gate.And [| core; test_en |] in
            let d_in = fresh Gate.Or [| normal_path; test_path |] in
            ignore (emit cl.q_name Gate.Dff [| d_in |]);
            (* fresh cells bypass through a mux in normal mode (Fig. 3c) *)
            if not cl.converted then begin
              let pass = fresh Gate.And [| new_id.(cl.driver); ntest |] in
              let hold = fresh Gate.And [| q_id.(!k); test_en |] in
              ignore
                (emit (gate_name mux_number.(cl.driver)) Gate.Or [| pass; hold |])
            end;
            incr k)
          cell_list;
        scan_prev := msb)
    cells_by_group;
  (* primary outputs keep observing the functional signals *)
  let outputs = Array.map (fun po -> new_id.(po)) c.Circuit.outputs in
  let circuit =
    Circuit.of_nodes ~title:(c.Circuit.title ^ "-testable") nodes ~outputs
  in
  {
    circuit;
    original = c;
    cells = all_cells;
    groups;
    test_en = test_en_name;
    fb_en = fb_en_name;
    psa_en = psa_en_name;
    scan_in = scan_in_name;
    added_area = Circuit.area circuit -. Circuit.area c;
  }

let cell_count t = List.length t.cells

let scan_length = cell_count

let measured_overhead_per_cell t =
  if t.cells = [] then 0.0
  else t.added_area /. float_of_int (List.length t.cells)
