(* The benchmark's entry point:

     perfbench --workload W --seed N --seconds S --trace 0|1 [--inject]

   runs workload W (compile-cold, serve-edit or run-p2) for S seconds
   of whole suite rounds (serve-edit: a fixed number of rounds that
   lasts about S seconds) on inputs drawn from seed N, checks every
   output, and prints as its last line one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics (from a traced run) with --trace 1.
   The line before it carries the host probe and run details.  A traced
   run also writes its spans to .perfbench/trace-W-seedN.json.  The exit
   code is 0 only when every output was correct.

   --inject feeds the workload one wrong answer; --self-test S runs the
   benchmark's own tests (selftest.ml); --list-layers prints
   BENCHMARK.json's per_layer list. *)

open Common

let workloads =
  [ ("compile-cold", Compile_cold.run); ("serve-edit", Serve_edit.run);
    ("run-p2", Run_p2.run) ]

let end_to_end (o : outcome) =
  let n = List.length o.lat in
  if n < min_ops then
    failwith (Printf.sprintf "only %d ops timed; op_ms_p95 needs %d" n min_ops);
  let failed = List.length o.failures in
  [ ("setup_s", "s", median o.setups);
    ("ops_per_s", "1/s", float_of_int n /. sum o.lat);
    ("op_ms_p50", "ms", 1000.0 *. median o.lat);
    ("op_ms_p95", "ms", 1000.0 *. percentile o.lat 95.0);
    ("peak_rss_mb", "MB", o.peak_rss_mb);
    ("loops_parallel", "count", float_of_int o.loops_parallel);
    ("ops_ok_frac", "ratio", 1.0 -. ratio failed o.attempted) ]

let metrics_json rows =
  Json.obj
    (List.map
       (fun (name, unit_, v) ->
         (name, Json.obj [ ("value", num v); ("unit", Json.str unit_) ]))
       rows)

let host_json ~before:(alu0, mem0) ~after:(alu1, mem1) =
  Json.obj
    [ ("probe_alu_before_s", num alu0); ("probe_alu_after_s", num alu1);
      ("probe_mem_before_s", num mem0); ("probe_mem_after_s", num mem1);
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.str Sys.ocaml_version); ("git_sha", Json.str (git_sha ())) ]

let write_trace ~path ~workload ~seed ~host layers =
  mkdir_p work_dir;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    (Json.obj
       [ ("workload", Json.str workload);
         ("seed", Json.int seed);
         ("host", host);
         ( "self_ms",
           Json.obj
             (List.map (fun (n, s) -> (n, num (1000.0 *. s))) (Trace.self_times ())) );
         ( "layers",
           Json.arr
             (List.map
                (fun ((r : Layers.row), v) ->
                  Json.obj
                    [ ("name", Json.str r.name); ("value", num v);
                      ("unit", Json.str r.unit_); ("moves", Json.str r.moves) ])
                layers) );
         ("spans", Trace.spans_json ()) ]);
  output_char oc '\n'

let main ~workload ~seed ~seconds ~trace ~inject =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None -> failwith ("unknown workload " ^ workload)
  in
  let before = probe_child () in
  let o = run ~seed ~seconds ~trace ~inject in
  let after = probe_child () in
  let host = host_json ~before ~after in
  let failed = List.length o.failures in
  let metrics, trace_file =
    if not trace then (metrics_json (end_to_end o), Json.null)
    else begin
      let layers = Layers.report ~workload o.layers in
      let path =
        Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
      in
      write_trace ~path ~workload ~seed ~host layers;
      ( metrics_json (List.map (fun ((r : Layers.row), v) -> (r.name, r.unit_, v)) layers),
        Json.str path )
    end
  in
  List.iteri
    (fun i m -> if i < 10 then prerr_endline ("perfbench: FAILED " ^ m))
    o.failures;
  print_endline
    (Json.obj
       [ ( "info",
           Json.obj
             [ ("workload", Json.str workload); ("seed", Json.int seed);
               ("seconds", num seconds); ("ops", Json.int (List.length o.lat));
               ( "op_ms_p95_beyond",
                 Json.int
                   (let p95 = percentile o.lat 95.0 in
                    List.length (List.filter (fun x -> x > p95) o.lat)) );
               ("setups_s", Json.arr (List.map num o.setups));
               ("host", host); ("trace_file", trace_file) ] ) ]);
  print_endline
    (Json.obj
       [ ("correct", Json.bool (failed = 0));
         ("attempted", Json.int o.attempted);
         ("failed", Json.int failed);
         ("metrics", metrics) ]);
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and inject = ref false and list_layers = ref false in
  let self_test = ref 0.0 and probe = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W compile-cold | serve-edit | run-p2");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--inject", Arg.Set inject, " feed the checks one wrong answer");
      ("--list-layers", Arg.Set list_layers, " print the per_layer list");
      ("--probe", Arg.Set probe, " time the host probe's two loops");
      ( "--self-test", Arg.Set_float self_test,
        "S test the checks and the seed independence, S seconds a run" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if !list_layers then print_endline (Layers.benchmark_json ())
  else if !probe then Common.probe ()
  else if !self_test > 0.0 then
    Selftest.run ~workloads:(List.map fst workloads) ~seconds:!self_test
  else
    match
      main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~inject:!inject
    with
    | () -> ()
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
