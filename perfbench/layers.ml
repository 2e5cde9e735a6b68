(* The per-layer metrics of the traced runs: name, unit, which way is
   better, the end-to-end metric (on which workload) the layer should
   move, and the workloads whose traced runs measure it.  BENCHMARK.json's
   [per_layer] list is printed from this table ([perfbench --list-layers]).
   The pass, cache and program rows follow the code: the passes of the
   default pipeline, the caches registered with Util.Cachectl and the
   codes of the suite.

   Counts are per suite round (16 ops, one per suite code), so that runs
   of different length compare; rates and per-op GC figures are ratios. *)

let pass_names = List.map Core.Pass_id.name Core.Registry.thorough.pl_passes

type row = {
  name : string;
  unit_ : string;
  better : string;
  moves : string;
  on : string list;  (* the workloads that measure it *)
}

let row ~on name unit_ better moves = { name; unit_; better; moves; on }

let cc = "compile-cold" and se = "serve-edit" and rp = "run-p2"
let every = [ cc; se; rp ]

let all =
  [ row ~on:[ cc ] "frontend.parse_ms" "ms" "lower"
      (Printf.sprintf "op_ms_p50 on %s and %s" cc se) ]
  @ List.map
      (fun p ->
        row ~on:[ cc ] ("passes." ^ p ^ "_ms") "ms" "lower"
          ("ops_per_s and op_ms_p95 on " ^ cc))
      pass_names
  @ [ row ~on:[ cc ] "core.unattributed_ms" "ms" "lower" ("ops_per_s on " ^ cc);
      row ~on:[ cc ] "core.incidents" "count/round" "lower" ("ops_ok_frac on " ^ cc);
      row ~on:every "dep.ms" "ms" "lower" ("ops_per_s on " ^ cc) ]
  @ List.map
      (fun (c, better) ->
        row ~on:every ("dep." ^ c) "count/round" better ("loops_parallel on " ^ cc))
      [ ("range_proved", "higher"); ("range_failed", "lower");
        ("linear_proved", "higher"); ("linear_failed", "lower");
        ("unknown", "lower") ]
  @ List.concat_map
      (fun (c, _, _) ->
        let moves =
          Printf.sprintf "op_ms_p50 on %s (reads), ops_per_s on %s (fills)" se
            cc
        in
        [ row ~on:every ("cache." ^ c ^ ".lookups") "count/round" "lower" moves;
          row ~on:every ("cache." ^ c ^ ".hit_rate") "ratio" "higher" moves ])
      (Util.Cachectl.snapshot ())
  @ [ row ~on:[ cc ] "backend.f77_ms" "ms" "lower" ("op_ms_p50 on " ^ cc);
      row ~on:[ cc ] "backend.c_ms" "ms" "lower" ("op_ms_p50 on " ^ cc);
      row ~on:every "pool.tasks" "count/round" "higher" ("ops_per_s on " ^ cc);
      row ~on:every "pool.steals" "count/round" "lower" ("ops_per_s on " ^ cc) ]
  @ List.map
      (fun (name, unit_, better, moves) ->
        row ~on:[ se ] name unit_ better (moves ^ " on " ^ se))
      [ ("serve.roundtrip_ms", "ms", "lower", "op_ms_p50 and op_ms_p95");
        ("serve.compile_ms", "ms", "lower", "op_ms_p50 and op_ms_p95");
        ("serve.overhead_ms", "ms", "lower", "op_ms_p50 and op_ms_p95");
        ("serve.codec_ms", "ms", "lower", "op_ms_p50");
        ("serve.reuse_rate", "ratio", "higher", "op_ms_p50");
        ("serve.shared_hit_rate", "ratio", "higher", "op_ms_p50");
        ("serve.flushes", "count/round", "lower", "op_ms_p95");
        ("serve.errors", "count/round", "lower", "ops_ok_frac");
        ("store.entries", "count", "lower", "peak_rss_mb");
        ("serve.daemon_start_s", "s", "lower", "setup_s");
        ("serve.project_open_s", "s", "lower", "setup_s") ]
  @ List.map
      (fun (name, unit_, better, moves) ->
        row ~on:[ rp ] name unit_ better (moves ^ " on " ^ rp))
      [ ("machine.serial_ms", "ms", "lower", "op_ms_p50");
        ("machine.p2_ms", "ms", "lower", "ops_per_s and op_ms_p50");
        ("machine.speedup_p2", "x", "higher", "ops_per_s");
        ("parexec.regions", "count/round", "higher", "ops_per_s");
        ("parexec.par_iters", "count/round", "higher", "ops_per_s");
        ("parexec.serial_loops", "count/round", "lower", "ops_per_s");
        ("fruntime.spec_attempts", "count/round", "higher", "op_ms_p95");
        ("fruntime.spec_success", "count/round", "higher", "op_ms_p95");
        ("fruntime.spec_failures", "count/round", "lower", "op_ms_p95 and ops_ok_frac") ]
  @ [ row ~on:every "gc.alloc_mb_per_op" "MB/op" "lower" "peak_rss_mb and ops_per_s on all";
      row ~on:every "gc.minor_per_op" "count/op" "lower" "ops_per_s on all";
      row ~on:every "gc.major_per_op" "count/op" "lower" "peak_rss_mb and ops_per_s on all";
      row ~on:every "trace.overhead_frac" "ratio" "lower" "none: traced vs untraced ops_per_s";
      row ~on:[ cc ] "trace.uncovered_frac" "ratio" "lower"
        ("none: op time no layer span covers, on " ^ cc) ]
  @ List.concat_map
      (fun (c : Suite.Code.t) ->
        [ row ~on:[ cc; se ] ("program." ^ c.name ^ ".compile_ms") "ms" "lower"
            ("ops_per_s on " ^ cc);
          row ~on:[ rp ] ("program." ^ c.name ^ ".p2_ms") "ms" "lower"
            ("ops_per_s on " ^ rp) ])
      Suite.Registry.all

(* the [per_layer] list of BENCHMARK.json *)
let benchmark_json () =
  let open Common.Json in
  arr
    (List.map
       (fun r ->
         obj [ ("name", str r.name); ("unit", str r.unit_);
               ("better", str r.better) ])
       all)

(* Every row, filled from the values a traced run of [workload]
   measured.  A row that the workload does not measure reads 0: its layer
   does no work there, or cannot be seen from outside (README).  A row the
   workload should measure but did not, or a value that no row names, is
   an error, so that a renamed cache or a wrapper that stopped recording
   cannot pass for an idle layer. *)
let report ~workload values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun r -> r.name = name) all) then
        failwith (Printf.sprintf "%s measured %s, which no layer row names" workload name))
    values;
  List.map
    (fun r ->
      match List.assoc_opt r.name values with
      | Some v -> (r, v)
      | None when List.mem workload r.on ->
        failwith (Printf.sprintf "%s did not measure layer row %s" workload r.name)
      | None -> (r, 0.0))
    all
