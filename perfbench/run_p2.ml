(* run-p2: the user running the restructured program.  Each op executes
   one compiled suite code on Machine.Parexec with 2 domains and compares
   its outcome under Valid.Oracle.real_cmp with the serial interpreter's,
   which is computed before the timed loop. *)

open Common

let setup_reps = 15
let procs = 2

(* the self-test's wrong answer: one oracle value moved *)
let perturb = function
  | Valid.Oracle.Finished (cap : Machine.Interp.capture) ->
    let bump = function
      | Machine.Value.Real x -> Machine.Value.Real ((x *. 1.001) +. 1.0)
      | Machine.Value.Int n -> Machine.Value.Int (n + 1)
      | v -> v
    in
    let cap_arrays =
      match cap.cap_arrays with
      | (name, a) :: rest ->
        let a = Array.copy a in
        a.(0) <- bump a.(0);
        (name, a) :: rest
      | [] -> []
    in
    Valid.Oracle.Finished { cap with cap_arrays }
  | fault -> fault

let run ~seed ~seconds ~trace ~inject : outcome =
  let cfg = Core.Config.polaris () in
  (* set-up: compile the suite from empty caches; repeated between
     rounds of the timed loop *)
  let setups = ref [] in
  let setup () =
    Util.Cachectl.clear_all ();
    let t0 = now () in
    let ts =
      List.map
        (fun (c : Suite.Code.t) -> (c, Core.Pipeline.compile cfg c.source))
        Suite.Registry.all
    in
    setups := (now () -. t0) :: !setups;
    ts
  in
  let compiled = setup () in
  let loops_parallel =
    List.fold_left
      (fun a (_, t) -> a + List.length (Core.Pipeline.parallel_loops t))
      0 compiled
  in
  (* the serial references, outside the set-up and the timed loop *)
  let programs =
    List.mapi
      (fun i ((c : Suite.Code.t), (t : Core.Pipeline.t)) ->
        let reference = Valid.Oracle.execute t.program in
        (c, t.program, if inject && i = 0 then perturb reference else reference))
      compiled
  in
  let failures = ref [] in
  let attempted = ref 0 in
  let rng = Random.State.make [| seed |] in
  let lats = lats () in
  let acc = Acc.create () in
  let per_code = Hashtbl.create 16 and serial = Hashtbl.create 16 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  run_rounds ~ticks:(setup_reps - 1)
    ~between:(fun () -> ignore (setup ()))
    ~seconds ~trace lats (fun ~traced ->
      List.iter
        (fun ((c : Suite.Code.t), program, reference) ->
          incr attempted;
          Trace.op := !attempted;
          let m0 = if traced then Some (mark ()) else None in
          let t0 = now () in
          let got, (st : Machine.Parexec.stats) =
            Trace.span "machine.p2" (fun () ->
                Valid.Oracle.execute_real ~procs program)
          in
          let dt = now () -. t0 in
          Option.iter (fun m0 -> add_delta acc m0 (mark ())) m0;
          add_lat lats ~traced dt;
          (match (reference, Valid.Oracle.compare_outcomes Valid.Oracle.real_cmp reference got) with
           | Valid.Oracle.Finished _, [] -> ()
           | Valid.Oracle.Fault m, _ ->
             failures :=
               Printf.sprintf "run-p2: %s: serial reference faulted: %s" c.name m
               :: !failures
           | _, d :: _ ->
             failures :=
               Fmt.str "run-p2: %s at p=%d: %a" c.name procs
                 Valid.Oracle.pp_divergence d
               :: !failures);
          if traced then begin
            let add name n = Acc.add acc name (float_of_int n) in
            add "parexec.regions" st.regions;
            add "parexec.par_iters" st.par_iters;
            add "parexec.serial_loops" st.serial_loops;
            add "fruntime.spec_attempts" st.spec_attempts;
            add "fruntime.spec_success" st.spec_success;
            add "fruntime.spec_failures" st.spec_failures;
            push per_code c.name dt;
            (* the serial interpreter on the same program, for the
               layer's speed-up; not an op *)
            let s0 = now () in
            ignore (Trace.span "machine.serial" (fun () -> Valid.Oracle.execute program));
            push serial c.name (now () -. s0)
          end)
        (shuffle rng programs));
  let peak_rss_mb = peak_rss_mb () in
  let layers =
    if not trace then []
    else begin
      let ops = List.length lats.traced in
      let ops_f = float_of_int (max 1 ops) in
      let per_round name = (name, Acc.get acc name *. 16.0 /. ops_f) in
      let all tbl = Hashtbl.fold (fun _ ds a -> ds @ a) tbl [] in
      let speedups =
        Hashtbl.fold
          (fun code ds a -> (median (Hashtbl.find serial code) /. median ds) :: a)
          per_code []
      in
      [ ("machine.serial_ms", 1000.0 *. mean (all serial));
        ("machine.p2_ms", 1000.0 *. mean (all per_code));
        ("machine.speedup_p2", geomean speedups);
        per_round "parexec.regions"; per_round "parexec.par_iters";
        per_round "parexec.serial_loops"; per_round "fruntime.spec_attempts";
        per_round "fruntime.spec_success"; per_round "fruntime.spec_failures";
        ("trace.overhead_frac", overhead lats) ]
      @ Hashtbl.fold
          (fun code ds a -> ("program." ^ code ^ ".p2_ms", 1000.0 *. median ds) :: a)
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
