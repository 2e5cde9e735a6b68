(* compile-cold: the CLI user's compile.  Each op compiles one suite
   code from source with empty caches through the default (thorough)
   pipeline and emits both f77 and C; both outputs must equal the
   committed goldens byte for byte.  The caches are emptied between
   ops, outside the timed interval. *)

open Common

let setup_reps = 15

type golden = { g_f77 : string; g_c : string }

let load_goldens ~inject =
  List.mapi
    (fun i (c : Suite.Code.t) ->
      let base = String.lowercase_ascii c.name in
      let g_f77 = read_file (Printf.sprintf "test/golden/f77/%s.f" base) in
      (* the self-test's wrong answer: one corrupted golden *)
      let g_f77 =
        if inject && i = 0 then
          String.mapi (fun j ch -> if j = 10 then Char.chr (Char.code ch lxor 1) else ch) g_f77
        else g_f77
      in
      (c, { g_f77; g_c = read_file (Printf.sprintf "test/golden/c/%s.c" base) }))
    Suite.Registry.all

(* One compile, as the CLI does it.  In traced rounds every call into a
   layer is a span, and the pipeline's observer marks each pass's end
   (the interval between two callbacks is that pass and its guard). *)
let compile_one cfg source =
  let p =
    Trace.span "frontend.parse" (fun () ->
        Util.Cachectl.with_enabled cfg.Core.Config.caches (fun () ->
            Frontend.Parser.parse_string source))
  in
  let t =
    Trace.span "core.run" (fun () ->
        if not !Trace.on then Core.Pipeline.run cfg p
        else begin
          let last = ref (now ()) in
          let observer name _ =
            let t = now () in
            if name <> "parse" then Trace.record ("passes." ^ name) !last t;
            last := t
          in
          Core.Pipeline.run ~observer cfg p
        end)
  in
  let f77 =
    Trace.span "backend.f77" (fun () -> Backend.Registry.f77.b_emit t.program)
  in
  let c = Trace.span "backend.c" (fun () -> Backend.Registry.c.b_emit t.program) in
  (t, f77, c)

let check failures (code : Suite.Code.t) g (_, f77, c) =
  if not (String.equal f77 g.g_f77 && String.equal c g.g_c) then
    failures :=
      Printf.sprintf "compile-cold: %s output differs from test/golden" code.name
      :: !failures

let run ~seed ~seconds ~trace ~inject : outcome =
  let cfg = Core.Config.polaris () in
  let goldens = load_goldens ~inject in
  let failures = ref [] in
  let attempted = ref 0 in
  (* set-up: a cold compile of the whole suite; repeated between rounds
     of the timed loop, and every repetition checked *)
  let setups = ref [] in
  let setup () =
    Util.Cachectl.clear_all ();
    let t0 = now () in
    let outs =
      List.map
        (fun ((c : Suite.Code.t), g) -> (c, g, compile_one cfg c.source))
        goldens
    in
    setups := (now () -. t0) :: !setups;
    List.iter
      (fun (c, g, out) ->
        incr attempted;
        check failures c g out)
      outs;
    outs
  in
  let loops_parallel =
    List.fold_left
      (fun a (_, _, (t, _, _)) -> a + List.length (Core.Pipeline.parallel_loops t))
      0 (setup ())
  in
  (* the timed loop *)
  let rng = Random.State.make [| seed |] in
  let lats = lats () in
  let acc = Acc.create () in
  let per_code = Hashtbl.create 16 in
  let op_id = ref 0 in
  run_rounds ~ticks:(setup_reps - 1)
    ~between:(fun () -> ignore (setup ()))
    ~seconds ~trace lats (fun ~traced ->
      List.iter
        (fun ((c : Suite.Code.t), g) ->
          Util.Cachectl.clear_all ();
          incr op_id;
          Trace.op := !op_id;
          let m0 = if traced then Some (mark ()) else None in
          let t0 = now () in
          let out = Trace.span "op" (fun () -> compile_one cfg c.source) in
          let dt = now () -. t0 in
          Option.iter (fun m0 -> add_delta acc m0 (mark ())) m0;
          incr attempted;
          add_lat lats ~traced dt;
          if traced then begin
            let (t, _, _) = out in
            Acc.add acc "core.incidents" (float_of_int (List.length t.incidents));
            Hashtbl.replace per_code c.name
              (dt :: Option.value ~default:[] (Hashtbl.find_opt per_code c.name))
          end;
          check failures c g out)
        (shuffle rng goldens));
  let peak_rss_mb = peak_rss_mb () in
  let layers =
    if not trace then []
    else begin
      let ops = List.length lats.traced in
      let ops_f = float_of_int (max 1 ops) in
      let self = Trace.self_times () in
      let total name = Option.value ~default:0.0 (List.assoc_opt name self) in
      let ms_per_op name = 1000.0 *. total name /. ops_f in
      let op_ms = 1000.0 *. sum lats.traced /. ops_f in
      let unattributed = ms_per_op "op" +. ms_per_op "core.run" in
      [ ("frontend.parse_ms", ms_per_op "frontend.parse");
        ("backend.f77_ms", ms_per_op "backend.f77");
        ("backend.c_ms", ms_per_op "backend.c");
        ("core.unattributed_ms", unattributed);
        ("core.incidents", Acc.get acc "core.incidents" *. 16.0 /. ops_f);
        ("trace.overhead_frac", overhead lats);
        ("trace.uncovered_frac", unattributed /. op_ms) ]
      @ List.map
          (fun p -> ("passes." ^ p ^ "_ms", ms_per_op ("passes." ^ p)))
          Layers.pass_names
      @ Hashtbl.fold
          (fun code ds acc ->
            ("program." ^ code ^ ".compile_ms", 1000.0 *. median ds) :: acc)
          per_code []
      @ common_layers acc ~ops
    end
  in
  { attempted = !attempted;
    failures = List.rev !failures;
    setups = List.rev !setups;
    lat = lats.plain;
    loops_parallel;
    peak_rss_mb;
    layers }
