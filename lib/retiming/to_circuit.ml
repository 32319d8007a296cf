module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

type emitted = {
  circuit : Circuit.t;
  register_inits : (string * Logic3.t) list;
}

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

let reg_name chain j =
  chain.base ^ "__r" ^ string_of_int chain.id ^ "_" ^ string_of_int j

(* The layout is fixed, so every id is known before a node is built:
   the vertices in order (the host has no node), then the register
   chains by (tail vertex, chain id), each from its driver outward. *)
let circuit_of ?(title = "retimed") (g : Rgraph.t) =
  Ppet_obs.Obs.span "to_circuit.emit" @@ fun () ->
  (match Rgraph.check_invariants g with
   | Ok () -> ()
   | Error msg -> invalid_arg ("To_circuit.circuit_of: " ^ msg));
  let nv = Rgraph.n_vertices g in
  let host = g.Rgraph.host in
  let node_of_vertex v = if v > host then v - 1 else v in
  (* shared chains per tail vertex, newest first *)
  let chains_of_tail = Array.make nv [] in
  let n_chains = ref 0 in
  let edge_chain = Array.make (Array.length g.Rgraph.edges) None in
  Array.iteri
    (fun ei (e : Rgraph.edge) ->
      if e.Rgraph.weight > 0 then begin
        let tail = e.Rgraph.tail in
        let chain =
          match
            List.find_opt
              (fun ch -> compatible_prefix ch e.Rgraph.inits)
              chains_of_tail.(tail)
          with
          | Some ch -> ch
          | None ->
            incr n_chains;
            let ch =
              { values = [||]; base = Rgraph.vertex_name g tail; id = !n_chains }
            in
            chains_of_tail.(tail) <- ch :: chains_of_tail.(tail);
            ch
        in
        absorb chain e.Rgraph.inits;
        edge_chain.(ei) <- Some chain
      end)
    g.Rgraph.edges;
  (* first register id of every chain, in emission order *)
  let first_reg = Array.make (!n_chains + 1) 0 in
  let next = ref (nv - 1) in
  Array.iter
    (fun lst ->
      List.iter
        (fun ch ->
          first_reg.(ch.id) <- !next;
          next := !next + Array.length ch.values)
        (List.rev lst))
    chains_of_tail;
  let n = !next in
  (* node id an edge's head pin reads *)
  let pin_node ei =
    match edge_chain.(ei) with
    | None -> node_of_vertex g.Rgraph.edges.(ei).Rgraph.tail
    | Some chain -> first_reg.(chain.id) + g.Rgraph.edges.(ei).Rgraph.weight - 1
  in
  let placeholder = { Circuit.id = 0; name = ""; kind = Gate.Input; fanins = [||] } in
  let nodes = Array.make n placeholder in
  for v = 0 to nv - 1 do
    let id = node_of_vertex v in
    match g.Rgraph.kinds.(v) with
    | Rgraph.Vhost -> ()
    | Rgraph.Vpi name ->
      nodes.(id) <- { Circuit.id; name; kind = Gate.Input; fanins = [||] }
    | Rgraph.Vgate (kind, name) ->
      nodes.(id) <-
        { Circuit.id; name; kind; fanins = Array.map pin_node g.Rgraph.in_edges.(v) }
  done;
  let register_inits = ref [] in
  Array.iteri
    (fun tail lst ->
      List.iter
        (fun chain ->
          let base = first_reg.(chain.id) in
          Array.iteri
            (fun j v ->
              let name = reg_name chain (j + 1) in
              let fanin = if j = 0 then node_of_vertex tail else base + j - 1 in
              nodes.(base + j) <-
                { Circuit.id = base + j; name; kind = Gate.Dff; fanins = [| fanin |] };
              register_inits := (name, v) :: !register_inits)
            chain.values)
        (List.rev lst))
    chains_of_tail;
  let outputs = Array.map pin_node g.Rgraph.in_edges.(host) in
  let circuit = Circuit.of_nodes ~title nodes ~outputs in
  { circuit; register_inits = !register_inits }

let init_fn emitted =
  let tbl = Hashtbl.create 64 in
  let find = Circuit.name_index emitted.circuit in
  List.iter
    (fun (name, v) ->
      match find name with
      | Some id -> Hashtbl.replace tbl id v
      | None -> ())
    emitted.register_inits;
  fun id -> match Hashtbl.find_opt tbl id with Some v -> v | None -> Logic3.X
