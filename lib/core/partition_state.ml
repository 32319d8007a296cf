module Netgraph = Ppet_digraph.Netgraph
module Components = Ppet_digraph.Components
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate

type t = {
  c : Circuit.t;
  graph : Netgraph.t;
  label : int array;
  pi_count : int array;
  sink_cnt : (int, int) Hashtbl.t array;  (* cluster -> net -> member sinks *)
  entering : int array;
  mutable cuts : int;
  cut : bool array;
}

let sinks_of st k e =
  match Hashtbl.find_opt st.sink_cnt.(k) e with Some n -> n | None -> 0

let entering_status st k e =
  sinks_of st k e > 0 && st.label.(Netgraph.net_src st.graph e) <> k

let cut_status st e =
  let src_label = st.label.(Netgraph.net_src st.graph e) in
  Array.exists (fun v -> st.label.(v) <> src_label) (Netgraph.net_sinks st.graph e)

let build c graph ~labels ~n_clusters =
  let m = Netgraph.n_nets graph in
  let st =
    {
      c;
      graph;
      label = labels;
      pi_count = Array.make n_clusters 0;
      sink_cnt = Array.init n_clusters (fun _ -> Hashtbl.create 16);
      entering = Array.make n_clusters 0;
      cuts = 0;
      cut = Array.make m false;
    }
  in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.Circuit.kind = Gate.Input then begin
        let k = labels.(nd.Circuit.id) in
        st.pi_count.(k) <- st.pi_count.(k) + 1
      end)
    c.Circuit.nodes;
  Netgraph.iter_nets graph (fun e ~src:_ ~sinks ->
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            let k = labels.(v) in
            Hashtbl.replace st.sink_cnt.(k) e (sinks_of st k e + 1)
          end)
        sinks);
  for k = 0 to n_clusters - 1 do
    Hashtbl.iter
      (fun e _ ->
        if entering_status st k e then st.entering.(k) <- st.entering.(k) + 1)
      st.sink_cnt.(k)
  done;
  for e = 0 to m - 1 do
    if cut_status st e then begin
      st.cut.(e) <- true;
      st.cuts <- st.cuts + 1
    end
  done;
  st

let n_clusters st = Array.length st.entering

let label st v = st.label.(v)

let iota st k = st.entering.(k) + st.pi_count.(k)

let n_cut st = st.cuts

let affected_nets st v =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun e -> Hashtbl.replace tbl e ()) (Netgraph.in_nets st.graph v);
  Array.iter (fun e -> Hashtbl.replace tbl e ()) (Netgraph.out_nets st.graph v);
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) tbl [])

let move st v b =
  let a = st.label.(v) in
  if a <> b then begin
    let nets = affected_nets st v in
    let before_ent =
      List.concat_map
        (fun e ->
          [ (a, e, entering_status st a e); (b, e, entering_status st b e) ])
        nets
    in
    let before_cut = List.map (fun e -> (e, st.cut.(e))) nets in
    Array.iter
      (fun e ->
        let cur = sinks_of st a e in
        if cur <= 1 then Hashtbl.remove st.sink_cnt.(a) e
        else Hashtbl.replace st.sink_cnt.(a) e (cur - 1))
      (Netgraph.in_nets st.graph v);
    st.label.(v) <- b;
    if (Circuit.node st.c v).Circuit.kind = Gate.Input then begin
      st.pi_count.(a) <- st.pi_count.(a) - 1;
      st.pi_count.(b) <- st.pi_count.(b) + 1
    end;
    Array.iter
      (fun e -> Hashtbl.replace st.sink_cnt.(b) e (sinks_of st b e + 1))
      (Netgraph.in_nets st.graph v);
    List.iter
      (fun (k, e, was) ->
        let now = entering_status st k e in
        if was && not now then st.entering.(k) <- st.entering.(k) - 1
        else if now && not was then st.entering.(k) <- st.entering.(k) + 1)
      before_ent;
    List.iter
      (fun (e, was) ->
        let now = cut_status st e in
        if was && not now then begin
          st.cut.(e) <- false;
          st.cuts <- st.cuts - 1
        end
        else if now && not was then begin
          st.cut.(e) <- true;
          st.cuts <- st.cuts + 1
        end)
      before_cut
  end

let penalty st ~l_k =
  let total = ref 0 in
  for k = 0 to n_clusters st - 1 do
    let over = iota st k - l_k in
    if over > 0 then total := !total + over
  done;
  !total

let energy st ~l_k ~lambda =
  float_of_int st.cuts +. (lambda *. float_of_int (penalty st ~l_k))

let move_gain st ~l_k ~lambda v b =
  let a = st.label.(v) in
  if a = b then 0.0
  else begin
    let e0 = energy st ~l_k ~lambda in
    move st v b;
    let e1 = energy st ~l_k ~lambda in
    move st v a;
    e0 -. e1
  end

let to_assign c graph (p : Params.t) st =
  let n = Netgraph.n_nodes graph in
  let members = Hashtbl.create (n_clusters st) in
  for v = 0 to n - 1 do
    let k = st.label.(v) in
    let cur = try Hashtbl.find members k with Not_found -> [] in
    Hashtbl.replace members k (v :: cur)
  done;
  let inside_of vertices =
    let tbl = Hashtbl.create (Array.length vertices) in
    Array.iter (fun v -> Hashtbl.replace tbl v ()) vertices;
    fun v -> Hashtbl.mem tbl v
  in
  let partitions =
    Hashtbl.fold
      (fun _ vs acc ->
        let vertices = Array.of_list vs in
        Array.sort compare vertices;
        let ic =
          Cluster.input_count_of c graph ~inside:(inside_of vertices) vertices
        in
        {
          Assign.vertices;
          input_count = ic;
          merged_from = 1;
          oversize = ic > p.Params.l_k;
          locked = false;
        }
        :: acc)
      members []
  in
  (* iota descending, ties broken on member ids: the fold above visits
     clusters in hash order, which must not decide partition indexes *)
  let partitions =
    List.sort
      (fun x y ->
        match compare y.Assign.input_count x.Assign.input_count with
        | 0 -> compare x.Assign.vertices y.Assign.vertices
        | c -> c)
      partitions
  in
  let partition_of = Array.make n (-1) in
  List.iteri
    (fun i pt -> Array.iter (fun v -> partition_of.(v) <- i) pt.Assign.vertices)
    partitions;
  let cut_nets = Components.cut_nets graph partition_of in
  { Assign.partitions; partition_of; cut_nets; merges = 0 }
