type entry = {
  profile : Generator.profile;
  paper_area : float;
  paper_dff_on_scc : int;
  in_table11 : bool;
}

let mk name n_pi n_dff n_gates n_inv area dff_on_scc in_table11 =
  {
    profile =
      {
        Generator.name;
        n_pi;
        n_dff;
        n_gates;
        n_inv;
        dff_on_scc;
        area_target = Some area;
      };
    paper_area = area;
    paper_dff_on_scc = dff_on_scc;
    in_table11;
  }

(* Columns: name, PIs, DFFs, gates, INVs, area (Table 9);
   DFFs-on-SCC (Table 10); present in Table 11. *)
let all =
  [
    mk "s510" 19 6 179 32 547. 6 false;
    mk "s420.1" 18 16 140 78 620. 16 false;
    mk "s641" 35 19 107 272 832. 15 true;
    mk "s713" 35 19 139 254 892. 15 true;
    mk "s820" 18 5 256 33 943. 5 false;
    mk "s832" 18 5 262 25 961. 5 false;
    mk "s838.1" 34 32 288 158 1268. 32 false;
    mk "s1423" 17 74 490 167 2238. 71 false;
    mk "s5378" 35 179 1004 1775 6241. 124 true;
    mk "s9234.1" 36 211 2027 3570 11467. 172 true;
    mk "s9234" 19 228 2027 3570 11637. 173 false;
    mk "s13207.1" 62 638 2573 5378 19171. 462 true;
    mk "s13207" 31 669 2573 5378 19476. 463 true;
    mk "s15850.1" 77 534 3448 6324 21305. 487 true;
    mk "s35932" 35 1728 12204 3861 50625. 1728 true;
    mk "s38417" 28 1636 8709 13470 52768. 1166 true;
    mk "s38584.1" 38 1426 11448 7805 55147. 1424 true;
  ]

(* Scale-stress profiles beyond the paper's table, named by their rough
   cell count. Primary-input counts grow slowly with size: the flow stage
   injects one shortest-path tree per (PI, visit) pair, so the number of
   in-degree-0 vertices — not the gate count — dictates how many Dijkstra
   runs saturation needs. No paper area/Table-10 row exists for these, so
   [area_target = None] (the generator budgets ~2.5 area per gate). *)
let synth name n_pi n_dff n_gates n_inv dff_on_scc =
  {
    profile =
      { Generator.name; n_pi; n_dff; n_gates; n_inv; dff_on_scc;
        area_target = None };
    paper_area = 0.;
    paper_dff_on_scc = dff_on_scc;
    in_table11 = false;
  }

let synthetic =
  [
    synth "synth10k" 32 500 8_000 2_000 350;
    synth "synth100k" 48 5_000 80_000 20_000 3_500;
    synth "synth1m" 64 50_000 800_000 200_000 35_000;
  ]

let synthetic_names =
  List.map (fun e -> e.profile.Generator.name) synthetic

let find name =
  let has l =
    List.find_opt (fun e -> String.equal e.profile.Generator.name name) l
  in
  match has all with
  | Some e -> e
  | None ->
    (match has synthetic with
     | Some e -> e
     | None -> raise Not_found)

let names = List.map (fun e -> e.profile.Generator.name) all

let validate_names ?(flag = "") names_given =
  List.iter
    (fun name ->
      if
        name <> "s27"
        && (not (List.mem name names))
        && not (List.mem name synthetic_names)
      then
        raise
          (Circuit.Error
             (Printf.sprintf
                "%s%S is neither \"s27\", a known benchmark (%s), nor a \
                 synthetic profile (%s)"
                (if flag = "" then "" else flag ^ ": ")
                name (String.concat ", " names)
                (String.concat ", " synthetic_names))))
    names_given

let cache : (string * int64, Circuit.t) Hashtbl.t = Hashtbl.create 17

let circuit ?(seed = 0x5EEDL) name =
  match Hashtbl.find_opt cache (name, seed) with
  | Some c -> c
  | None ->
    let e = find name in
    let c = Generator.generate ~seed e.profile in
    Hashtbl.replace cache (name, seed) c;
    c

let small =
  List.filter_map
    (fun e ->
      if e.paper_area < 3000. then Some e.profile.Generator.name else None)
    all
