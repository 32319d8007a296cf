type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;
}

type t = {
  title : string;
  nodes : node array;
  inputs : int array;
  outputs : int array;
  fanouts : int array array;
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Combinational levelization; also detects combinational cycles. DFFs and
   PIs are sources at level 0; a DFF's data input never propagates a level
   because the register breaks the timing path. *)
let compute_levels nodes =
  let n = Array.length nodes in
  let level = Array.make n (-1) in
  let visiting = Array.make n false in
  let rec visit id =
    if level.(id) >= 0 then level.(id)
    else begin
      let nd = nodes.(id) in
      match nd.kind with
      | Gate.Input | Gate.Dff ->
        level.(id) <- 0;
        0
      | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        if visiting.(id) then
          error "combinational cycle through signal %S" nd.name;
        visiting.(id) <- true;
        let deepest = Array.fold_left (fun acc f -> max acc (visit f)) 0 nd.fanins in
        visiting.(id) <- false;
        level.(id) <- deepest + 1;
        deepest + 1
    end
  in
  for id = 0 to n - 1 do
    ignore (visit id)
  done;
  level

let check_arity nd =
  if not (Gate.arity_ok nd.kind (Array.length nd.fanins)) then
    error "gate %S: %s cannot take %d inputs" nd.name (Gate.name nd.kind)
      (Array.length nd.fanins)

let check_sources title nodes =
  if not (Array.exists (fun nd -> nd.kind = Gate.Input || nd.kind = Gate.Dff) nodes)
  then error "circuit %S has neither primary inputs nor flip-flops" title

(* The tail every constructor shares, once fanins and outputs are
   resolved ids: the derived PI list and fanout index, and the
   combinational-cycle check. *)
let seal title nodes outputs =
  let n = Array.length nodes in
  let inputs =
    Array.of_list
      (List.filter_map
         (fun nd -> if nd.kind = Gate.Input then Some nd.id else None)
         (Array.to_list nodes))
  in
  let fanout_count = Array.make n 0 in
  Array.iter
    (fun nd ->
      Array.iter (fun f -> fanout_count.(f) <- fanout_count.(f) + 1) nd.fanins)
    nodes;
  let fanouts = Array.init n (fun id -> Array.make fanout_count.(id) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun nd ->
      Array.iter
        (fun f ->
          fanouts.(f).(fill.(f)) <- nd.id;
          fill.(f) <- fill.(f) + 1)
        nd.fanins)
    nodes;
  let c = { title; nodes; inputs; outputs; fanouts } in
  ignore (compute_levels nodes);
  c

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let of_nodes ~title nodes ~outputs =
  let n = Array.length nodes in
  if n = 0 then error "empty circuit %S" title;
  let names = Names.create (2 * n) in
  Array.iteri
    (fun i nd ->
      if nd.id <> i then error "signal %S: id %d at position %d" nd.name nd.id i;
      if Names.mem names nd.name then error "duplicate definition of signal %S" nd.name;
      Names.add names nd.name i)
    nodes;
  Array.iter
    (fun nd ->
      Array.iter
        (fun f ->
          if f < 0 || f >= n then
            error "gate %S references undefined signal #%d" nd.name f)
        nd.fanins;
      check_arity nd)
    nodes;
  check_sources title nodes;
  Array.iter
    (fun o ->
      if o < 0 || o >= n then
        error "primary output list references undefined signal #%d" o)
    outputs;
  seal title nodes outputs

(* Names get their ids when they are declared, in the one table that
   also rejects duplicates; [finish] resolves every reference through
   it and hands ids to the same checks [of_nodes] makes. *)
module Builder = struct
  type pending = {
    p_name : string;
    p_kind : Gate.kind;
    p_fanins : string list;
  }

  type t = {
    b_title : string;
    mutable rev_pending : pending list;
    mutable rev_outputs : string list;
    ids : int Names.t;
  }

  let create title =
    { b_title = title; rev_pending = []; rev_outputs = []; ids = Names.create 64 }

  let define b name =
    if Names.mem b.ids name then error "duplicate definition of signal %S" name;
    Names.add b.ids name (Names.length b.ids)

  let add_input b name =
    define b name;
    b.rev_pending <- { p_name = name; p_kind = Gate.Input; p_fanins = [] } :: b.rev_pending

  let add_output b name = b.rev_outputs <- name :: b.rev_outputs

  let add_gate b ~name ~kind ~fanins =
    (match kind with
     | Gate.Input -> error "signal %S: use add_input for primary inputs" name
     | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
     | Gate.Xor | Gate.Xnor | Gate.Dff -> ());
    define b name;
    b.rev_pending <- { p_name = name; p_kind = kind; p_fanins = fanins } :: b.rev_pending

  let finish b =
    let pendings = Array.of_list (List.rev b.rev_pending) in
    if Array.length pendings = 0 then error "empty circuit %S" b.b_title;
    let nodes =
      Array.mapi
        (fun id p ->
          let resolve name =
            match Names.find_opt b.ids name with
            | Some f -> f
            | None -> error "gate %S references undefined signal %S" p.p_name name
          in
          let nd =
            { id; name = p.p_name; kind = p.p_kind;
              fanins = Array.of_list (List.map resolve p.p_fanins) }
          in
          check_arity nd;
          nd)
        pendings
    in
    check_sources b.b_title nodes;
    let outputs =
      Array.of_list
        (List.rev_map
           (fun name ->
             match Names.find_opt b.ids name with
             | Some id -> id
             | None ->
               error "primary output list references undefined signal %S" name)
           b.rev_outputs)
    in
    seal b.b_title nodes outputs
end

let find c name =
  let n = Array.length c.nodes in
  let rec loop i =
    if i >= n then raise Not_found
    else if String.equal c.nodes.(i).name name then i
    else loop (i + 1)
  in
  loop 0

let name_index c =
  let names = Names.create (2 * Array.length c.nodes) in
  (* walk down, so a repeated name keeps its first id, as [find] does *)
  for id = Array.length c.nodes - 1 downto 0 do
    Names.replace names c.nodes.(id).name id
  done;
  Names.find_opt names

let node c id = c.nodes.(id)

let size c = Array.length c.nodes

let ids_of_kind pred c =
  Array.of_list
    (List.filter_map
       (fun nd -> if pred nd.kind then Some nd.id else None)
       (Array.to_list c.nodes))

let dffs = ids_of_kind (fun k -> k = Gate.Dff)

let combinational =
  ids_of_kind (fun k ->
      match k with
      | Gate.Input | Gate.Dff -> false
      | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor -> true)

let is_po c id = Array.exists (fun o -> o = id) c.outputs

let area c =
  Array.fold_left
    (fun acc nd -> acc +. Gate.area nd.kind (Array.length nd.fanins))
    0.0 c.nodes

let levels c = compute_levels c.nodes

let equal a b =
  let fanin_names c (nd : node) =
    Array.map (fun f -> c.nodes.(f).name) nd.fanins
  in
  let io_names c ids = Array.map (fun id -> c.nodes.(id).name) ids in
  Array.length a.nodes = Array.length b.nodes
  && io_names a a.inputs = io_names b b.inputs
  && io_names a a.outputs = io_names b b.outputs
  &&
  let by_name = Hashtbl.create (2 * Array.length b.nodes) in
  Array.iter (fun nd -> Hashtbl.replace by_name nd.name nd) b.nodes;
  Array.for_all
    (fun nd ->
      match Hashtbl.find_opt by_name nd.name with
      | None -> false
      | Some nd' -> nd.kind = nd'.kind && fanin_names a nd = fanin_names b nd')
    a.nodes

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %S: %d nodes (%d PI, %d DFF, %d PO)"
    c.title (size c)
    (Array.length c.inputs)
    (Array.length (dffs c))
    (Array.length c.outputs);
  Array.iter
    (fun nd ->
      Format.fprintf ppf "@,%s = %s(%s)" nd.name (Gate.name nd.kind)
        (String.concat ", "
           (List.map (fun f -> c.nodes.(f).name) (Array.to_list nd.fanins))))
    c.nodes;
  Format.fprintf ppf "@]"
