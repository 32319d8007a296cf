module Tarjan = Ppet_digraph.Tarjan
module Netgraph = Ppet_digraph.Netgraph
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

type t = {
  graph : Netgraph.t;
  result : Tarjan.result;
  loop : bool array;
  dff_count : int array;
}

let create ?csr c g =
  if Netgraph.n_nodes g <> Circuit.size c then
    invalid_arg "Scc_budget.create: graph does not match circuit";
  let result =
    match csr with Some csr -> Tarjan.of_csr csr | None -> Tarjan.run g
  in
  let loop =
    Array.init result.Tarjan.count (fun comp ->
        not (Tarjan.is_trivial result g comp))
  in
  let dff_count = Array.make result.Tarjan.count 0 in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.Circuit.kind = Gate.Dff then begin
        let comp = result.Tarjan.component.(nd.Circuit.id) in
        dff_count.(comp) <- dff_count.(comp) + 1
      end)
    c.Circuit.nodes;
  { graph = g; result; loop; dff_count }

let scc t = t.result

let n_components t = t.result.Tarjan.count

let is_loop t comp = t.loop.(comp)

let registers t comp = t.dff_count.(comp)

let dffs_on_scc t =
  let total = ref 0 in
  Array.iteri
    (fun comp count -> if t.loop.(comp) then total := !total + count)
    t.dff_count;
  !total

let net_scc t e =
  match Tarjan.net_internal t.result t.graph e with
  | Some comp when t.loop.(comp) -> Some comp
  | Some _ | None -> None

let cuts_by_scc t cut_nets =
  let hist = Array.make t.result.Tarjan.count 0 in
  List.iter
    (fun e ->
      match net_scc t e with
      | Some comp -> hist.(comp) <- hist.(comp) + 1
      | None -> ())
    cut_nets;
  hist

let mux_excess t ~cuts_on_scc =
  let total = ref 0 in
  Array.iteri
    (fun comp chi ->
      if t.loop.(comp) then total := !total + max 0 (chi - t.dff_count.(comp)))
    cuts_on_scc;
  !total

let coverable t ~cuts_on_scc ~cuts_total =
  let on_scc = Array.fold_left ( + ) 0 cuts_on_scc in
  let covered_in_loops = ref 0 in
  Array.iteri
    (fun comp chi ->
      if t.loop.(comp) then
        covered_in_loops := !covered_in_loops + min chi t.dff_count.(comp))
    cuts_on_scc;
  (cuts_total - on_scc) + !covered_in_loops
