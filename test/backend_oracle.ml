(* The back end as it was first written: the sweep-until-no-progress
   retiming pass over linked register lists, and the two emitters that
   build their netlists by name through [Circuit.Builder]. They are the
   differential oracles of [Retime.apply], [To_circuit.circuit_of] and
   [Testable.insert], which lay out their netlists by id and must
   reproduce these results exactly. Nothing in the library uses them. *)

module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Netgraph = Ppet_digraph.Netgraph
module Gf2_poly = Ppet_bist.Gf2_poly
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module Logic3 = Ppet_retiming.Logic3
module To_circuit = Ppet_retiming.To_circuit
module Merced = Ppet_core.Merced
module Assign = Ppet_core.Assign
module Testable = Ppet_core.Testable

(* ------------------------------------------------------------------ *)
(* Retime.apply: full sweeps over every vertex until no move is ready. *)

let gate_kind g v =
  match g.Rgraph.kinds.(v) with
  | Rgraph.Vgate (k, _) -> Some k
  | Rgraph.Vpi _ | Rgraph.Vhost -> None

(* Pop the register nearest the head of the edge (last of the tail-first
   init list). *)
let pop_head (e : Rgraph.edge) =
  match List.rev e.Rgraph.inits with
  | [] -> invalid_arg "Retime: popping an empty edge"
  | v :: rest ->
    e.Rgraph.inits <- List.rev rest;
    e.Rgraph.weight <- e.Rgraph.weight - 1;
    v

let pop_tail (e : Rgraph.edge) =
  match e.Rgraph.inits with
  | [] -> invalid_arg "Retime: popping an empty edge"
  | v :: rest ->
    e.Rgraph.inits <- rest;
    e.Rgraph.weight <- e.Rgraph.weight - 1;
    v

let push_tail (e : Rgraph.edge) v =
  e.Rgraph.inits <- v :: e.Rgraph.inits;
  e.Rgraph.weight <- e.Rgraph.weight + 1

let push_head (e : Rgraph.edge) v =
  e.Rgraph.inits <- e.Rgraph.inits @ [ v ];
  e.Rgraph.weight <- e.Rgraph.weight + 1

let apply g rho =
  if not (Retime.is_legal g rho) then invalid_arg "Retime.apply: illegal retiming";
  let work = Rgraph.copy g in
  let n = Rgraph.n_vertices work in
  let rem = Array.copy rho in
  let progress = ref true in
  (* A backward move justifies a register value with ONE preimage; with
     reconvergent fanout, justifications arriving over different paths
     may contradict each other (the meet of the popped values is empty).
     Degrading only the meet point to X is unsound: the conflicting
     claims have already committed concrete preimage bits elsewhere, and
     those commitments describe a pre-history that does not exist — the
     emitted machine then concretely diverges from the original in its
     first cycles. Any conflict therefore taints the whole constructive
     pass and we fall back to X initial values (scan-supplied), which is
     always safe. *)
  let tainted = ref false in
  let remaining () = Array.exists (fun r -> r <> 0) rem in
  while remaining () && !progress do
    progress := false;
    for v = 0 to n - 1 do
      match gate_kind work v with
      | None -> ()
      | Some kind ->
        if rem.(v) < 0 then begin
          (* forward move: one register from every in-edge to every
             out-edge, value computed through the gate *)
          let ins = work.Rgraph.in_edges.(v) in
          let ready =
            Array.for_all
              (fun ei -> work.Rgraph.edges.(ei).Rgraph.weight > 0)
              ins
          in
          if ready then begin
            let pins =
              Array.map (fun ei -> pop_head work.Rgraph.edges.(ei)) ins
            in
            let value = Logic3.eval kind pins in
            Array.iter
              (fun ei -> push_tail work.Rgraph.edges.(ei) value)
              work.Rgraph.out_edges.(v);
            rem.(v) <- rem.(v) + 1;
            progress := true
          end
        end
        else if rem.(v) > 0 then begin
          (* backward move: justify a register from the outputs back to
             the inputs *)
          let outs = work.Rgraph.out_edges.(v) in
          let ready =
            Array.for_all
              (fun ei -> work.Rgraph.edges.(ei).Rgraph.weight > 0)
              outs
          in
          if ready then begin
            let popped =
              Array.map (fun ei -> pop_tail work.Rgraph.edges.(ei)) outs
            in
            let value =
              Array.fold_left
                (fun acc v ->
                  match acc with
                  | None -> None
                  | Some a -> Logic3.meet a v)
                (Some Logic3.X) popped
            in
            let value =
              match value with
              | Some v -> v
              | None ->
                tainted := true;
                Logic3.X
            in
            let arity = Array.length work.Rgraph.in_edges.(v) in
            let pre =
              match Logic3.preimage kind arity value with
              | Some ins -> ins
              | None ->
                tainted := true;
                Array.make arity Logic3.X
            in
            Array.iteri
              (fun pin ei -> push_head work.Rgraph.edges.(ei) pre.(pin))
              work.Rgraph.in_edges.(v);
            rem.(v) <- rem.(v) - 1;
            progress := true
          end
        end
    done
  done;
  if remaining () || !tainted then begin
    (* Constructive ordering failed or a justification conflict was
       detected; fall back to the weight formula.
       Every edge incident to a lagged vertex has its register contents
       time-shifted — even at unchanged weight — so only edges between
       two lag-0 vertices keep their initial values; the rest become X
       (supplied by the scan chain in hardware). *)
    let fresh = Rgraph.copy g in
    Array.iteri
      (fun i (e : Rgraph.edge) ->
        if rho.(e.Rgraph.tail) <> 0 || rho.(e.Rgraph.head) <> 0 then begin
          let w = Retime.retimed_weight g rho i in
          e.Rgraph.weight <- w;
          e.Rgraph.inits <- List.init w (fun _ -> Logic3.X)
        end)
      fresh.Rgraph.edges;
    fresh
  end
  else work

(* ------------------------------------------------------------------ *)
(* To_circuit.circuit_of: names through Circuit.Builder. *)

(* A register chain under construction for one driver: mutable values
   (meet-refined as edges share it) and the eventual register names. *)
type chain = {
  mutable values : Logic3.t array;
  base : string;  (* name prefix *)
  id : int;
}

(* Two registers may share a chain position only when their initial
   values are IDENTICAL. X is "unknown but specific", not a free choice:
   refining an X against a concrete value (or unifying two independent
   unknowns) would commit the emitted netlist to behaviour the retimed
   graph never justified. *)
let compatible_prefix chain inits =
  let w = List.length inits in
  let upto = min w (Array.length chain.values) in
  let rec check i = function
    | [] -> true
    | v :: tl ->
      if i >= upto then true
      else if Logic3.equal chain.values.(i) v && not (Logic3.equal v Logic3.X)
      then check (i + 1) tl
      else false
  in
  check 0 inits

let absorb chain inits =
  let w = List.length inits in
  let len = Array.length chain.values in
  if w > len then begin
    let bigger = Array.make w Logic3.X in
    Array.blit chain.values 0 bigger 0 len;
    chain.values <- bigger
  end;
  (* guarded by compatible_prefix: overlapping positions already equal *)
  List.iteri (fun i v -> if i >= len then chain.values.(i) <- v) inits

let reg_name chain j = Printf.sprintf "%s__r%d_%d" chain.base chain.id j

let circuit_of ?(title = "retimed") (g : Rgraph.t) : To_circuit.emitted =
  (match Rgraph.check_invariants g with
   | Ok () -> ()
   | Error msg -> invalid_arg ("To_circuit.circuit_of: " ^ msg));
  let nv = Rgraph.n_vertices g in
  (* build shared chains per tail vertex *)
  let chains_of_tail : (int, chain list ref) Hashtbl.t = Hashtbl.create 64 in
  let chain_counter = ref 0 in
  let edge_chain = Array.make (Array.length g.Rgraph.edges) None in
  Array.iteri
    (fun ei (e : Rgraph.edge) ->
      if e.Rgraph.weight > 0 then begin
        let lst =
          match Hashtbl.find_opt chains_of_tail e.Rgraph.tail with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace chains_of_tail e.Rgraph.tail l;
            l
        in
        let chain =
          match List.find_opt (fun ch -> compatible_prefix ch e.Rgraph.inits) !lst with
          | Some ch -> ch
          | None ->
            incr chain_counter;
            let ch =
              {
                values = [||];
                base = Rgraph.vertex_name g e.Rgraph.tail;
                id = !chain_counter;
              }
            in
            lst := ch :: !lst;
            ch
        in
        absorb chain e.Rgraph.inits;
        edge_chain.(ei) <- Some chain
      end)
    g.Rgraph.edges;
  (* signal name an edge's head pin reads *)
  let pin_signal ei =
    let e = g.Rgraph.edges.(ei) in
    match edge_chain.(ei) with
    | None -> Rgraph.vertex_name g e.Rgraph.tail
    | Some chain -> reg_name chain e.Rgraph.weight
  in
  let b = Circuit.Builder.create title in
  let register_inits = ref [] in
  (* vertices *)
  for v = 0 to nv - 1 do
    match g.Rgraph.kinds.(v) with
    | Rgraph.Vhost -> ()
    | Rgraph.Vpi name -> Circuit.Builder.add_input b name
    | Rgraph.Vgate (kind, name) ->
      let fanins =
        Array.to_list (Array.map pin_signal g.Rgraph.in_edges.(v))
      in
      Circuit.Builder.add_gate b ~name ~kind ~fanins
  done;
  (* register chains, in canonical (tail vertex, chain id) order: hash
     iteration order must not leak into the emitted netlist, or two
     identical compiles stop being byte-identical *)
  let tails =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun tail lst acc -> (tail, lst) :: acc) chains_of_tail [])
  in
  List.iter
    (fun (tail, lst) ->
      let driver = Rgraph.vertex_name g tail in
      List.iter
        (fun chain ->
          Array.iteri
            (fun j v ->
              let name = reg_name chain (j + 1) in
              let fanin = if j = 0 then driver else reg_name chain j in
              Circuit.Builder.add_gate b ~name ~kind:Gate.Dff
                ~fanins:[ fanin ];
              register_inits := (name, v) :: !register_inits)
            chain.values)
        (List.sort (fun c1 c2 -> compare c1.id c2.id) !lst))
    tails;
  (* primary outputs: the host's in-edges *)
  Array.iter
    (fun ei -> Circuit.Builder.add_output b (pin_signal ei))
    g.Rgraph.in_edges.(g.Rgraph.host);
  let circuit = Circuit.Builder.finish b in
  { To_circuit.circuit; register_inits = !register_inits }

(* ------------------------------------------------------------------ *)
(* Testable.insert: names through Circuit.Builder. *)

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

let insert (r : Merced.result) : Testable.t =
  let open Testable in
  let c = r.Merced.circuit in
  let g = r.Merced.graph in
  Array.iter
    (fun (nd : Circuit.node) ->
      if
        String.length nd.Circuit.name >= String.length prefix
        && String.sub nd.Circuit.name 0 (String.length prefix) = prefix
      then
        invalid_arg
          (Printf.sprintf "Testable.insert: signal %S clashes with the PPET_ namespace"
             nd.Circuit.name))
    c.Circuit.nodes;
  let groups_plan = plan_groups r in
  let gate_seq = ref 0 in
  let fresh_gate () =
    incr gate_seq;
    Printf.sprintf "%sG%d" prefix !gate_seq
  in
  let fresh_q =
    let q_seq = ref 0 in
    fun () ->
      incr q_seq;
      Printf.sprintf "%sQ%d" prefix !q_seq
  in
  (* plan the cells: names first, wiring later *)
  let cells = ref [] in
  let groups = ref [] in
  List.iteri
    (fun group_index (partition, nets) ->
      let cell_list =
        List.mapi
          (fun bit_index net ->
            let driver = Netgraph.net_src g net in
            let converted = (Circuit.node c driver).Circuit.kind = Gate.Dff in
            let q_name =
              if converted then (Circuit.node c driver).Circuit.name
              else fresh_q ()
            in
            { Testable.net; driver; q_name; converted; group_index; bit_index })
          nets
      in
      let width = List.length cell_list in
      groups :=
        {
          Testable.partition;
          width;
          poly = Gf2_poly.primitive (max 1 (min width 32));
          cell_names = List.map (fun cl -> cl.q_name) cell_list;
        }
        :: !groups;
      cells := cell_list :: !cells)
    groups_plan;
  let groups = List.rev !groups in
  let cells_by_group = List.rev !cells in
  let all_cells = List.concat cells_by_group in
  (* bypass rewiring: fresh cells interpose a mux on their driver *)
  let mux_of_driver = Hashtbl.create 16 in
  List.iter
    (fun cl ->
      if not cl.converted then
        Hashtbl.replace mux_of_driver cl.driver (fresh_gate ()))
    all_cells;
  let converted_drivers = Hashtbl.create 16 in
  List.iter
    (fun cl -> if cl.converted then Hashtbl.replace converted_drivers cl.driver ())
    all_cells;
  let name_of id = (Circuit.node c id).Circuit.name in
  let rewired id =
    match Hashtbl.find_opt mux_of_driver id with
    | Some mux -> mux
    | None -> name_of id
  in
  let b = Circuit.Builder.create (c.Circuit.title ^ "-testable") in
  (* primary inputs: originals plus the controls *)
  Array.iter (fun pi -> Circuit.Builder.add_input b (name_of pi)) c.Circuit.inputs;
  List.iter (Circuit.Builder.add_input b)
    [ test_en_name; fb_en_name; psa_en_name; scan_in_name ];
  let has_cells = all_cells <> [] in
  if has_cells then begin
    Circuit.Builder.add_gate b ~name:ntest_name ~kind:Gate.Not
      ~fanins:[ test_en_name ];
    Circuit.Builder.add_gate b ~name:nfb_name ~kind:Gate.Not
      ~fanins:[ fb_en_name ]
  end;
  (* original logic, with cut-net readers rerouted through the muxes;
     converted flip-flops are emitted by their cells instead *)
  Array.iter
    (fun (nd : Circuit.node) ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | Gate.Dff when Hashtbl.mem converted_drivers nd.Circuit.id -> ()
      | Gate.Dff | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or
      | Gate.Nor | Gate.Xor | Gate.Xnor ->
        Circuit.Builder.add_gate b ~name:nd.Circuit.name ~kind:nd.Circuit.kind
          ~fanins:(List.map rewired (Array.to_list nd.Circuit.fanins)))
    c.Circuit.nodes;
  (* the test cells, group by group, chained for scan *)
  let scan_prev = ref scan_in_name in
  List.iter2
    (fun group cell_list ->
      match cell_list with
      | [] -> ()
      | first :: _ ->
        ignore first;
        let names = Array.of_list group.cell_names in
        let msb = names.(group.width - 1) in
        (* feedback gated by FB_EN, shared across the group *)
        let fb_gated = fresh_gate () in
        Circuit.Builder.add_gate b ~name:fb_gated ~kind:Gate.And
          ~fanins:[ msb; fb_en_name ];
        (* the group's scan entry: previous chain bit, blocked when the
           feedback network is active (TPG/PSA shift in zero) *)
        let scan_gate = fresh_gate () in
        Circuit.Builder.add_gate b ~name:scan_gate ~kind:Gate.And
          ~fanins:[ !scan_prev; nfb_name ];
        let degree = Gf2_poly.degree group.poly in
        List.iter
          (fun cl ->
            let i = cl.bit_index in
            (* functional data arriving at the cell *)
            let d_sig =
              if cl.converted then
                rewired (Circuit.node c cl.driver).Circuit.fanins.(0)
              else name_of cl.driver
            in
            (* test-mode next state *)
            let shift_src = if i = 0 then scan_gate else names.(i - 1) in
            let tap = i < degree && group.poly land (1 lsl i) <> 0 in
            let after_fb =
              if tap then begin
                let x = fresh_gate () in
                Circuit.Builder.add_gate b ~name:x ~kind:Gate.Xor
                  ~fanins:[ shift_src; fb_gated ];
                x
              end
              else shift_src
            in
            let psa_term = fresh_gate () in
            Circuit.Builder.add_gate b ~name:psa_term ~kind:Gate.And
              ~fanins:[ d_sig; psa_en_name ];
            let core = fresh_gate () in
            Circuit.Builder.add_gate b ~name:core ~kind:Gate.Xor
              ~fanins:[ after_fb; psa_term ];
            (* mode selection in front of the register *)
            let normal_path = fresh_gate () in
            Circuit.Builder.add_gate b ~name:normal_path ~kind:Gate.And
              ~fanins:[ d_sig; ntest_name ];
            let test_path = fresh_gate () in
            Circuit.Builder.add_gate b ~name:test_path ~kind:Gate.And
              ~fanins:[ core; test_en_name ];
            let d_in = fresh_gate () in
            Circuit.Builder.add_gate b ~name:d_in ~kind:Gate.Or
              ~fanins:[ normal_path; test_path ];
            Circuit.Builder.add_gate b ~name:cl.q_name ~kind:Gate.Dff
              ~fanins:[ d_in ];
            (* fresh cells bypass through a mux in normal mode (Fig. 3c) *)
            if not cl.converted then begin
              let mux = Hashtbl.find mux_of_driver cl.driver in
              let pass = fresh_gate () in
              Circuit.Builder.add_gate b ~name:pass ~kind:Gate.And
                ~fanins:[ name_of cl.driver; ntest_name ];
              let hold = fresh_gate () in
              Circuit.Builder.add_gate b ~name:hold ~kind:Gate.And
                ~fanins:[ cl.q_name; test_en_name ];
              Circuit.Builder.add_gate b ~name:mux ~kind:Gate.Or
                ~fanins:[ pass; hold ]
            end)
          cell_list;
        scan_prev := msb)
    groups cells_by_group;
  (* primary outputs keep observing the functional signals *)
  Array.iter
    (fun po -> Circuit.Builder.add_output b (name_of po))
    c.Circuit.outputs;
  let circuit = Circuit.Builder.finish b in
  {
    Testable.circuit;
    original = c;
    cells = all_cells;
    groups;
    test_en = test_en_name;
    fb_en = fb_en_name;
    psa_en = psa_en_name;
    scan_in = scan_in_name;
    added_area = Circuit.area circuit -. Circuit.area c;
  }

