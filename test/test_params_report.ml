module Params = Ppet_core.Params
module Report = Ppet_core.Report
module Merced = Ppet_core.Merced
module S27 = Ppet_netlist.S27

let test_defaults_match_paper () =
  let p = Params.paper in
  Alcotest.(check (float 1e-9)) "b" 1.0 p.Params.capacity;
  Alcotest.(check int) "min_visit" 20 p.Params.min_visit;
  Alcotest.(check (float 1e-9)) "alpha" 4.0 p.Params.alpha;
  Alcotest.(check (float 1e-9)) "delta" 0.01 p.Params.delta;
  Alcotest.(check int) "beta" 50 p.Params.beta;
  Alcotest.(check int) "l_k" 16 p.Params.l_k;
  (* the product default lowers the sampling budget and nothing else *)
  let d = Params.default in
  Alcotest.(check bool) "default samples less" true
    (d.Params.min_visit < p.Params.min_visit);
  Alcotest.(check bool) "default differs only in min_visit" true
    ({ d with Params.min_visit = p.Params.min_visit } = p)

let test_with_lk () =
  Alcotest.(check int) "lk" 24 (Params.with_lk 24).Params.l_k;
  Alcotest.(check bool) "rest unchanged" true
    ({ (Params.with_lk 24) with Params.l_k = 16 } = Params.default)

let test_validation_messages () =
  let bad field p =
    match Params.validate p with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (field ^ " should be rejected")
  in
  bad "capacity" { Params.default with Params.capacity = 0.0 };
  bad "min_visit" { Params.default with Params.min_visit = 0 };
  bad "delta" { Params.default with Params.delta = -0.5 };
  bad "beta" { Params.default with Params.beta = 0 };
  bad "l_k low" { Params.default with Params.l_k = 1 };
  bad "l_k high" { Params.default with Params.l_k = 40 };
  bad "max_iterations" { Params.default with Params.max_iterations = 0 };
  (match Params.validate Params.default with
   | Ok () -> ()
   | Error m -> Alcotest.fail m)

let test_pp () =
  Alcotest.(check bool) "prints" true
    (String.length (Format.asprintf "%a" Params.pp Params.default) > 20)

let test_report_headers_align () =
  (* headers and rows keep the same column structure *)
  let r = Merced.run ~params:(Params.with_lk 3) (S27.circuit ()) in
  let header_cols =
    List.length
      (List.filter (fun s -> s <> "")
         (String.split_on_char ' ' Report.table10_header))
  in
  let row_cols =
    List.length
      (List.filter (fun s -> s <> "")
         (String.split_on_char ' ' (Report.table10_row r)))
  in
  Alcotest.(check int) "t10 columns" header_cols row_cols

let test_csv_stable_schema () =
  let cols = String.split_on_char ',' Report.csv_header in
  Alcotest.(check int) "17 columns" 17 (List.length cols);
  Alcotest.(check bool) "first is circuit" true (List.hd cols = "circuit")

let suite =
  [
    Alcotest.test_case "paper defaults" `Quick test_defaults_match_paper;
    Alcotest.test_case "with_lk" `Quick test_with_lk;
    Alcotest.test_case "validation" `Quick test_validation_messages;
    Alcotest.test_case "params printing" `Quick test_pp;
    Alcotest.test_case "report columns align" `Quick test_report_headers_align;
    Alcotest.test_case "csv schema" `Quick test_csv_stable_schema;
  ]
