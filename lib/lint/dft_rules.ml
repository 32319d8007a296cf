module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Netgraph = Ppet_digraph.Netgraph
module Tarjan = Ppet_digraph.Tarjan
module Rgraph = Ppet_retiming.Rgraph
module Scc_budget = Ppet_retiming.Scc_budget
module Gf2_poly = Ppet_bist.Gf2_poly
module Merced = Ppet_core.Merced
module Cluster = Ppet_core.Cluster
module Assign = Ppet_core.Assign
module Testable = Ppet_core.Testable
module Area_accounting = Ppet_core.Area_accounting
module Params = Ppet_core.Params

let err ~rule = Diag.makef ~rule ~severity:Diag.Error

let is_comb = function
  | Gate.Input | Gate.Dff -> false
  | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
  | Gate.Xor | Gate.Xnor -> true

(* ------------------------------------------------------------------ *)

let input_bound (r : Merced.result) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let part_of = r.Merced.assignment.Assign.partition_of in
  let lk = r.Merced.params.Params.l_k in
  List.iteri
    (fun i (p : Assign.partition) ->
      let locus = Printf.sprintf "partition %d" i in
      let iota =
        Cluster.input_count_of r.Merced.circuit r.Merced.graph
          ~inside:(fun v -> part_of.(v) = i)
          p.Assign.vertices
      in
      if iota <> p.Assign.input_count then
        add
          (err ~rule:"input-bound" ~locus
             ~hint:"the compiler's iota book-keeping is stale"
             "recomputed iota %d disagrees with the recorded %d" iota
             p.Assign.input_count);
      if iota > lk && (not p.Assign.oversize) && not p.Assign.locked then
        add
          (err ~rule:"input-bound" ~locus
             ~hint:"an unmarked partition must satisfy the input constraint"
             "iota %d exceeds the input constraint l_k = %d" iota lk))
    r.Merced.assignment.Assign.partitions;
  List.rev !diags

(* ------------------------------------------------------------------ *)

let control_inputs (t : Testable.t) =
  [ t.Testable.test_en; t.Testable.fb_en; t.Testable.psa_en; t.Testable.scan_in ]

let cell_placement (r : Merced.result) (t : Testable.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let c = r.Merced.circuit in
  let g = r.Merced.graph in
  let net_name e = (Circuit.node c (Netgraph.net_src g e)).Circuit.name in
  let cut = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace cut e 0)
    r.Merced.assignment.Assign.cut_nets;
  List.iter
    (fun (cl : Testable.cell) ->
      match Hashtbl.find_opt cut cl.Testable.net with
      | None ->
        add
          (err ~rule:"cell-placement" ~locus:cl.Testable.q_name
             ~hint:"every A_CELL must register a cut net"
             "cell sits on net %d (driver %s), which is not a cut net"
             cl.Testable.net (net_name cl.Testable.net))
      | Some n ->
        Hashtbl.replace cut cl.Testable.net (n + 1);
        let driver = Netgraph.net_src g cl.Testable.net in
        if cl.Testable.driver <> driver then
          add
            (err ~rule:"cell-placement" ~locus:cl.Testable.q_name
               "cell's recorded driver %d is not the net's source %d"
               cl.Testable.driver driver);
        let converted = (Circuit.node c driver).Circuit.kind = Gate.Dff in
        if cl.Testable.converted <> converted then
          add
            (err ~rule:"cell-placement" ~locus:cl.Testable.q_name
               "cell marked %s but the cut-net driver is %s"
               (if cl.Testable.converted then "converted" else "fresh")
               (if converted then "a flip-flop" else "combinational")))
    t.Testable.cells;
  Hashtbl.iter
    (fun e n ->
      if n <> 1 then
        add
          (err ~rule:"cell-placement" ~locus:(net_name e)
             ~hint:"each cut net needs exactly one A_CELL"
             "cut net %d has %d cells" e n))
    cut;
  if t.Testable.cells <> [] then begin
    let find = Circuit.name_index t.Testable.circuit in
    List.iter
      (fun name ->
        match find name with
        | Some id ->
          if (Circuit.node t.Testable.circuit id).Circuit.kind <> Gate.Input
          then
            add
              (err ~rule:"cell-placement" ~locus:name
                 "control signal is not a primary input")
        | None ->
          add
            (err ~rule:"cell-placement" ~locus:name
               "control input is missing from the testable netlist"))
      (control_inputs t)
  end;
  List.rev !diags

(* ------------------------------------------------------------------ *)

(* The combinational backward closure of [start] in [c]: expansion stops
   at flip-flops and primary inputs, which are recorded as boundary. *)
let load_cone (c : Circuit.t) start =
  let seen = Hashtbl.create 64 in
  let boundary = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let nd = Circuit.node c id in
      if is_comb nd.Circuit.kind then Array.iter visit nd.Circuit.fanins
      else Hashtbl.add boundary id ()
    end
  in
  visit start;
  boundary

let scan_chain (r : Merced.result) (t : Testable.t) =
  ignore r;
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tc = t.Testable.circuit in
  let find = Circuit.name_index tc in
  let prev = ref t.Testable.scan_in in
  List.iteri
    (fun i (cl : Testable.cell) ->
      (match find cl.Testable.q_name with
       | None ->
         add
           (err ~rule:"scan-chain" ~locus:cl.Testable.q_name
              "cell register is missing from the testable netlist")
       | Some q ->
         let nd = Circuit.node tc q in
         if nd.Circuit.kind <> Gate.Dff then
           add
             (err ~rule:"scan-chain" ~locus:cl.Testable.q_name
                "cell register is a %s, not a DFF" (Gate.name nd.Circuit.kind))
         else begin
           let boundary = load_cone tc nd.Circuit.fanins.(0) in
           match find !prev with
           | None ->
             add
               (err ~rule:"scan-chain" ~locus:cl.Testable.q_name
                  "predecessor %s does not exist" !prev)
           | Some p ->
             if not (Hashtbl.mem boundary p) then
               add
                 (err ~rule:"scan-chain" ~locus:cl.Testable.q_name
                    ~hint:"the chain must thread SCAN_IN through every cell"
                    "chain broken at bit %d: predecessor %s is not in the \
                     register's load cone"
                    i !prev)
         end);
      prev := cl.Testable.q_name)
    t.Testable.cells;
  List.rev !diags

(* ------------------------------------------------------------------ *)

let cbit_width (r : Merced.result) (t : Testable.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let partitions = Array.of_list r.Merced.assignment.Assign.partitions in
  List.iteri
    (fun gi (g : Testable.cbit_group) ->
      let locus = Printf.sprintf "CBIT %d" gi in
      let members =
        List.filter
          (fun (cl : Testable.cell) -> cl.Testable.group_index = gi)
          t.Testable.cells
      in
      let n = List.length members in
      if g.Testable.width <> n || List.length g.Testable.cell_names <> n then
        add
          (err ~rule:"cbit-width" ~locus
             "width %d disagrees with %d member cells (%d recorded names)"
             g.Testable.width n
             (List.length g.Testable.cell_names));
      let bits = List.sort compare (List.map (fun cl -> cl.Testable.bit_index) members) in
      if bits <> List.init n (fun i -> i) then
        add
          (err ~rule:"cbit-width" ~locus
             "bit indexes are not a permutation of 0..%d" (n - 1));
      List.iter
        (fun (cl : Testable.cell) ->
          if
            cl.Testable.bit_index < List.length g.Testable.cell_names
            && List.nth g.Testable.cell_names cl.Testable.bit_index
               <> cl.Testable.q_name
          then
            add
              (err ~rule:"cbit-width" ~locus
                 "bit %d is %s in the group but cell %s claims it"
                 cl.Testable.bit_index
                 (List.nth g.Testable.cell_names cl.Testable.bit_index)
                 cl.Testable.q_name))
        members;
      if n > 0 then begin
        let want_degree = min n 32 in
        if Gf2_poly.degree g.Testable.poly <> want_degree then
          add
            (err ~rule:"cbit-width" ~locus
               ~hint:"the feedback polynomial must span the CBIT"
               "polynomial degree %d does not match min(width, 32) = %d"
               (Gf2_poly.degree g.Testable.poly)
               want_degree);
        if not (Gf2_poly.is_primitive g.Testable.poly) then
          add
            (err ~rule:"cbit-width" ~locus
               ~hint:"non-primitive feedback shortens the pattern cycle"
               "feedback polynomial 0x%x is not primitive" g.Testable.poly)
      end;
      if g.Testable.partition < 0 || g.Testable.partition >= Array.length partitions
      then
        add
          (err ~rule:"cbit-width" ~locus "fed partition %d does not exist"
             g.Testable.partition))
    t.Testable.groups;
  List.rev !diags

(* ------------------------------------------------------------------ *)

let feq a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a +. Float.abs b)

let area_accounting (r : Merced.result) (t : Testable.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let b = r.Merced.breakdown in
  let fresh =
    Area_accounting.compute r.Merced.circuit r.Merced.budget
      ~cut_nets:r.Merced.assignment.Assign.cut_nets
      ~partition_iotas:(Merced.partition_iotas r)
  in
  let want_int what got want =
    if got <> want then
      add
        (err ~rule:"area-accounting" ~locus:what
           "recorded %d does not re-derive (fresh computation gives %d)" got
           want)
  in
  let want_float what got want =
    if not (feq got want) then
      add
        (err ~rule:"area-accounting" ~locus:what
           "recorded %g does not re-derive (fresh computation gives %g)" got
           want)
  in
  let open Area_accounting in
  want_int "cuts_total" b.cuts_total fresh.cuts_total;
  want_int "cuts_on_scc" b.cuts_on_scc fresh.cuts_on_scc;
  want_int "retimable" b.retimable fresh.retimable;
  want_int "mux_excess" b.mux_excess fresh.mux_excess;
  want_int "dffs_total" b.dffs_total fresh.dffs_total;
  want_int "dffs_on_scc" b.dffs_on_scc fresh.dffs_on_scc;
  want_float "circuit_area" b.circuit_area fresh.circuit_area;
  want_float "feedback_overhead" b.feedback_overhead fresh.feedback_overhead;
  want_float "area_with_retiming" b.area_with_retiming fresh.area_with_retiming;
  want_float "area_without_retiming" b.area_without_retiming
    fresh.area_without_retiming;
  want_int "cuts_total vs cut_nets" b.cuts_total
    (List.length r.Merced.assignment.Assign.cut_nets);
  let measured =
    Circuit.area t.Testable.circuit -. Circuit.area t.Testable.original
  in
  if not (feq t.Testable.added_area measured) then
    add
      (err ~rule:"area-accounting" ~locus:"added_area"
         "recorded added area %g, but the netlists measure %g"
         t.Testable.added_area measured);
  if t.Testable.added_area < -1e-9 then
    add
      (err ~rule:"area-accounting" ~locus:"added_area"
         "adding test hardware cannot shrink the netlist (%g)"
         t.Testable.added_area);
  List.rev !diags

(* ------------------------------------------------------------------ *)

let scc_budget (r : Merced.result) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let budget = r.Merced.budget in
  let beta = r.Merced.params.Params.beta in
  let chi =
    Scc_budget.cuts_by_scc budget r.Merced.assignment.Assign.cut_nets
  in
  Array.iteri
    (fun c n ->
      if Scc_budget.is_loop budget c then begin
        let f = Scc_budget.registers budget c in
        if n > beta * f then
          add
            (err ~rule:"scc-budget" ~locus:(Printf.sprintf "SCC %d" c)
               ~hint:"Eq. 6: cuts on a loop are bounded by beta * registers"
               "chi = %d cut nets exceed beta * f = %d * %d" n beta f)
      end
      else if n > 0 then
        add
          (err ~rule:"scc-budget" ~locus:(Printf.sprintf "SCC %d" c)
             "%d cut nets counted internal to a loop-free component" n))
    chi;
  List.rev !diags

(* ------------------------------------------------------------------ *)

(* Eq. 1 re-derived with local arithmetic: never Retime.retimed_weight. *)
let retimed_weight (g : Rgraph.t) rho e =
  let edge = g.Rgraph.edges.(e) in
  edge.Rgraph.weight + rho.(edge.Rgraph.head) - rho.(edge.Rgraph.tail)

let vertex_table (g : Rgraph.t) =
  let tbl = Hashtbl.create (2 * Rgraph.n_vertices g) in
  for v = 0 to Rgraph.n_vertices g - 1 do
    Hashtbl.replace tbl (Rgraph.vertex_name g v) v
  done;
  tbl

(* One directed cycle inside a nontrivial SCC: follow, from the first
   member, the first out-edge staying inside the component. *)
let cycle_of_scc (g : Rgraph.t) (scc : Tarjan.result) comp =
  let inside v = scc.Tarjan.component.(v) = comp in
  let next v =
    let out = g.Rgraph.out_edges.(v) in
    let rec pick i =
      if i >= Array.length out then None
      else
        let e = out.(i) in
        if inside g.Rgraph.edges.(e).Rgraph.head then Some e else pick (i + 1)
    in
    pick 0
  in
  let start = scc.Tarjan.members.(comp).(0) in
  let rec walk path_edges seen v =
    match Hashtbl.find_opt seen v with
    | Some depth ->
      (* drop the lead-in, keep the cycle *)
      Some
        (List.filteri
           (fun i _ -> i >= depth)
           (List.rev path_edges))
    | None -> (
      Hashtbl.add seen v (List.length path_edges);
      match next v with
      | None -> None
      | Some e ->
        walk (e :: path_edges) seen g.Rgraph.edges.(e).Rgraph.head)
  in
  walk [] (Hashtbl.create 16) start

let retiming_legality (r : Merced.result) cert =
  match cert with
  | None ->
    [ err ~rule:"retiming-legality"
        "no retiming certificate: even the identity retiming failed" ]
  | Some (cert : Merced.certificate) ->
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let g = cert.Merced.cert_graph in
    let rho = cert.Merced.cert_rho in
    let n = Rgraph.n_vertices g in
    if Array.length rho <> n then
      add
        (err ~rule:"retiming-legality"
           "certificate has %d lags for %d vertices" (Array.length rho) n);
    if Array.length rho = n then begin
      (* pinned lags: the paper's rho maps C to Z; PIs and host stay 0 *)
      for v = 0 to n - 1 do
        match g.Rgraph.kinds.(v) with
        | Rgraph.Vpi _ | Rgraph.Vhost ->
          if rho.(v) <> 0 then
            add
              (err ~rule:"retiming-legality" ~locus:(Rgraph.vertex_name g v)
                 "pinned vertex has lag %d (must be 0)" rho.(v))
        | Rgraph.Vgate _ -> ()
      done;
      (* Eq. 3: every retimed weight non-negative *)
      Array.iteri
        (fun e (edge : Rgraph.edge) ->
          let w' = retimed_weight g rho e in
          if w' < 0 then
            add
              (err ~rule:"retiming-legality"
                 ~locus:
                   (Printf.sprintf "%s -> %s"
                      (Rgraph.vertex_name g edge.Rgraph.tail)
                      (Rgraph.vertex_name g edge.Rgraph.head))
                 "Eq. 3 violated: retimed weight %d on an edge of weight %d"
                 w' edge.Rgraph.weight))
        g.Rgraph.edges;
      (* Eq. 2: register count around a cycle of every loop is invariant *)
      let gn = Netgraph.create n in
      Array.iter
        (fun (edge : Rgraph.edge) ->
          ignore
            (Netgraph.add_net gn ~src:edge.Rgraph.tail
               ~sinks:[ edge.Rgraph.head ]))
        g.Rgraph.edges;
      let scc = Tarjan.run gn in
      List.iter
        (fun comp ->
          match cycle_of_scc g scc comp with
          | None -> ()
          | Some cycle ->
            let before =
              List.fold_left
                (fun acc e -> acc + g.Rgraph.edges.(e).Rgraph.weight)
                0 cycle
            in
            let after =
              List.fold_left (fun acc e -> acc + retimed_weight g rho e) 0 cycle
            in
            if before <> after then
              add
                (err ~rule:"retiming-legality"
                   ~locus:
                     (Rgraph.vertex_name g
                        g.Rgraph.edges.(List.hd cycle).Rgraph.tail)
                   "Eq. 2 violated: a loop's register count moved from %d to %d"
                   before after))
        (Tarjan.nontrivial scc gn);
      (* requirement accounting: retained requirements are satisfied and
         retained + dropped covers every comb-driven cut net *)
      let by_name = vertex_table g in
      let universe = Hashtbl.create 64 in
      List.iter
        (fun e ->
          let driver = Netgraph.net_src r.Merced.graph e in
          let nd = Circuit.node r.Merced.circuit driver in
          if is_comb nd.Circuit.kind then
            match Hashtbl.find_opt by_name nd.Circuit.name with
            | Some v -> Hashtbl.replace universe v ()
            | None ->
              add
                (err ~rule:"retiming-legality" ~locus:nd.Circuit.name
                   "cut-net driver has no vertex in the retiming graph"))
        r.Merced.assignment.Assign.cut_nets;
      List.iter
        (fun v ->
          if not (Hashtbl.mem universe v) then
            add
              (err ~rule:"retiming-legality" ~locus:(Rgraph.vertex_name g v)
                 "requirement retained on a vertex that drives no \
                  comb-driven cut net");
          Array.iter
            (fun e ->
              let w' = retimed_weight g rho e in
              if w' < 1 then
                add
                  (err ~rule:"retiming-legality"
                     ~locus:(Rgraph.vertex_name g v)
                     ~hint:"this cut net was promised a functional register"
                     "requirement unsatisfied: out-edge to %s keeps %d \
                      registers"
                     (Rgraph.vertex_name g
                        g.Rgraph.edges.(e).Rgraph.head)
                     w'))
            g.Rgraph.out_edges.(v))
        cert.Merced.cert_required;
      let n_required = List.length cert.Merced.cert_required in
      let n_universe = Hashtbl.length universe in
      if n_universe - n_required <> cert.Merced.cert_dropped then
        add
          (err ~rule:"retiming-legality"
             "accounting: %d comb-driven cut drivers, %d requirements \
              retained, but %d recorded as dropped"
             n_universe n_required cert.Merced.cert_dropped);
      (* the emitted netlist realises exactly the certified weights *)
      let no_errors_yet = !diags = [] in
      if no_errors_yet then begin
        let emitted = Merced.apply_certificate r cert in
        let g2 =
          Rgraph.of_circuit emitted.Ppet_retiming.To_circuit.circuit
        in
        let by_name2 = vertex_table g2 in
        for v = 0 to n - 1 do
          let name = Rgraph.vertex_name g v in
          match Hashtbl.find_opt by_name2 name with
          | None ->
            add
              (err ~rule:"retiming-legality" ~locus:name
                 "vertex is missing from the emitted retimed netlist")
          | Some v2 ->
            let ins = g.Rgraph.in_edges.(v)
            and ins2 = g2.Rgraph.in_edges.(v2) in
            if Array.length ins <> Array.length ins2 then
              add
                (err ~rule:"retiming-legality" ~locus:name
                   "vertex has %d input pins before retiming, %d after"
                   (Array.length ins) (Array.length ins2))
            else
              Array.iteri
                (fun j e ->
                  let e2 = ins2.(j) in
                  let tail = Rgraph.vertex_name g g.Rgraph.edges.(e).Rgraph.tail
                  and tail2 =
                    Rgraph.vertex_name g2 g2.Rgraph.edges.(e2).Rgraph.tail
                  in
                  if tail <> tail2 then
                    add
                      (err ~rule:"retiming-legality" ~locus:name
                         "pin %d reads %s before retiming but %s after" j tail
                         tail2)
                  else begin
                    let want = retimed_weight g rho e
                    and got = g2.Rgraph.edges.(e2).Rgraph.weight in
                    if want <> got then
                      add
                        (err ~rule:"retiming-legality" ~locus:name
                           ~hint:
                             "the emitted netlist does not realise the \
                              certified register placement"
                           "pin %d (from %s): certificate says %d registers, \
                            netlist has %d"
                           j tail want got)
                  end)
                ins
        done
      end
    end;
    List.rev !diags

(* ------------------------------------------------------------------ *)

let exhaustive_width (r : Merced.result) =
  let limit = Ppet_core.Campaign.default_plan.Ppet_core.Campaign.max_width in
  let diags = ref [] in
  List.iteri
    (fun i seg ->
      let iota = Ppet_netlist.Segment.input_count seg in
      if iota > limit then
        diags :=
          Diag.makef ~rule:"exhaustive-width" ~severity:Diag.Info
            ~locus:(Printf.sprintf "partition %d" i)
            ~hint:
              "campaigns and selftest skip it; tighten l_k or raise \
               --max-width knowingly"
            "iota %d needs 2^%d exhaustive vectors, beyond the default \
             campaign width %d"
            iota iota limit
          :: !diags)
    (Merced.segments r);
  List.rev !diags
