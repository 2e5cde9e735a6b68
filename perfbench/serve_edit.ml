(* serve-edit: the editor user of `polaris daemon`.  An in-process
   daemon (default flags, store in a fresh directory) listens on a real
   unix socket; one client connection sends a seeded stream of compile
   requests, each one suite code with one single-unit edit.  After the
   daemon has stopped, every reply's output and verdicts are checked
   against an in-process from-scratch compile of the same source. *)

open Common

let setup_reps = 11

(* Insert [line] before the last END of the source, i.e. into its last
   program unit. *)
let before_last_end source line =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let at = ref (-1) in
  Array.iteri (fun i l -> if String.trim l = "END" then at := i) lines;
  if !at < 0 then failwith "serve-edit: source has no END line";
  lines.(!at) <- line ^ "\n" ^ lines.(!at);
  String.concat "\n" (Array.to_list lines)

(* The edit stream.  No measured editor traffic exists for this
   repository, so its mix is an assumption, not a sample of real use.
   There are two kinds of edit.  A comment leaves the parsed program, and
   so every analysis fact, unchanged.  A PRINT of a constant that no
   earlier request used changes the unit's fingerprint, so range
   propagation for every loop of that unit runs again.  (The bench
   incremental experiment splices the same CONTINUE into a code every
   time: in a stream only its first use per code would miss the caches.)
   In every round of 16 requests, [reanalysed_per_round] are PRINT edits.
   Every [period] rounds a seeded permutation of the codes picks them, so
   that each code gets the same share of PRINT edits on every seed. *)
let reanalysed_per_round = 2
let period = 16 / reanalysed_per_round

(* A run serves a fixed number of requests, [requests_per_s] for each
   second of --seconds: the rate of this workload on a 2-core x86
   virtual machine, so that a run lasts about --seconds there.  The
   stream and its length then depend on the seed and --seconds only, not
   on the program's speed.  This matters for peak_rss_mb: the daemon
   keeps about 30 KB per request served, so a time-bound loop would
   report more memory for a faster daemon. *)
let requests_per_s = 360.0

type edit = Comment | Print of int

let apply_edit source = function
  | Comment -> before_last_end source "C     edited"
  | Print k -> before_last_end source (Printf.sprintf "      PRINT *, %d" k)

(* what a reply must reproduce: the output and the per-loop verdicts *)
let digest output verdicts =
  Digest.string (output ^ "\000" ^ String.concat "\n" verdicts)

let reference cfg source =
  let r = Core.Incremental.scratch cfg source in
  digest r.outcome.oc_output (Serve.Local.render_verdicts r.outcome)

type daemon = {
  d_stop : bool Atomic.t;
  d_dom : Serve.Daemon.report Domain.t;
  d_conn : Serve.Client.t;
}

let start_daemon ~dir ~rep =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" rep) in
  let store = Filename.concat dir (Printf.sprintf "store%d" rep) in
  mkdir_p store;
  (* default flags; the shorter select timeout only shortens the wait for
     the stop flag, which lies outside every timed interval *)
  let cfg =
    { (Serve.Daemon.default_cfg ()) with
      d_socket = socket; d_store_dir = Some store; d_poll_s = 0.02 }
  in
  let stop = Atomic.make false and ready = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~stop ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let started = now () in
  match Serve.Client.connect ~deadline_s:30.0 socket with
  | Ok conn -> ({ d_stop = stop; d_dom = dom; d_conn = conn }, started)
  | Error m ->
    Atomic.set stop true;
    ignore (Domain.join dom);
    failwith ("serve-edit: " ^ m)

let stop_daemon d =
  Serve.Client.close d.d_conn;
  Atomic.set d.d_stop true;
  Domain.join d.d_dom

(* verdict lines read "UNIT DO I PARALLEL ..." or "UNIT DO I serial ..." *)
let verdicts_parallel verdicts =
  List.length
    (List.filter
       (fun v ->
         match String.split_on_char ' ' v with
         | _ :: "DO" :: _ :: "PARALLEL" :: _ -> true
         | _ -> false)
       verdicts)

(* one timed codec pass over the frames of one request and its reply *)
let codec_s req reply =
  let t0 = now () in
  let wire_req = Serve.Protocol.frame (Serve.Protocol.encode_request req) in
  let wire_resp =
    Serve.Protocol.frame
      (Serve.Protocol.encode_response (Serve.Protocol.Compiled reply))
  in
  let peel wire =
    let b = Buffer.create (String.length wire) in
    Buffer.add_string b wire;
    Option.get (Serve.Protocol.peel b)
  in
  ignore (Serve.Protocol.decode_request (peel wire_req));
  ignore (Serve.Protocol.decode_response (peel wire_resp));
  now () -. t0

type op_record = {
  o_code : Suite.Code.t;
  o_edit : edit option;  (* None: a base program of the set-up *)
  o_reply : (Digest.t, string) result;
}

let run ~seed ~seconds ~trace ~inject : outcome =
  let cfg = Core.Config.polaris ~procs:8 () in
  let dir = Filename.concat work_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let codes = Suite.Registry.all in
  let records = ref [] in
  let compile conn (code : Suite.Code.t) edit =
    let source =
      match edit with None -> code.source | Some e -> apply_edit code.source e
    in
    Serve.Client.compile_source conn ~label:code.name source
  in
  let record code edit reply =
    let o_reply =
      Result.map (fun (r : Serve.Protocol.compile_reply) ->
          digest r.co_output r.co_verdicts)
        reply
    in
    records := { o_code = code; o_edit = edit; o_reply } :: !records
  in
  (* set-up: daemon start, connect, cold compile of the 16 base codes,
     each time with a fresh daemon, store and caches.  Half the
     repetitions run before the timed loop (the last of them serves it)
     and half after it. *)
  let setups = ref [] and starts = ref [] and opens = ref [] in
  let setup rep =
    Util.Cachectl.clear_all ();
    let t0 = now () in
    let d, started = start_daemon ~dir ~rep in
    let replies = List.map (fun c -> (c, compile d.d_conn c None)) codes in
    let t1 = now () in
    setups := (t1 -. t0) :: !setups;
    starts := (started -. t0) :: !starts;
    opens := (t1 -. started) :: !opens;
    (d, replies)
  in
  let before = (setup_reps + 1) / 2 in
  for rep = 1 to before - 1 do
    ignore (stop_daemon (fst (setup rep)))
  done;
  let d, base = setup before in
  List.iter (fun (c, r) -> record c None r) base;
  let loops_parallel =
    List.fold_left
      (fun a (_, r) ->
        match r with
        | Ok (r : Serve.Protocol.compile_reply) -> a + verdicts_parallel r.co_verdicts
        | Error _ -> a)
      0 base
  in
  (* the timed loop: one closed-loop client *)
  let rng = Random.State.make [| seed |] in
  let rounds =
    let r = int_of_float (Float.ceil (seconds *. requests_per_s /. 16.0)) in
    period * ((max r (min_ops / 16 + 1) + period - 1) / period)
  in
  let lats = lats () in
  let acc = Acc.create () in
  let per_code = Hashtbl.create 16 in
  let requests = ref 0 and round = ref 0 and printed = ref [||] in
  run_rounds ~rounds ~seconds ~trace lats (fun ~traced ->
      let k = !round mod period in
      if k = 0 then printed := Array.of_list (shuffle rng codes);
      let reanalysed =
        Array.sub !printed (k * reanalysed_per_round) reanalysed_per_round
      in
      incr round;
      List.iter
        (fun (code : Suite.Code.t) ->
          incr requests;
          let edit =
            if Array.memq code reanalysed then Print !requests else Comment
          in
          Trace.op := !requests;
          let m0 = if traced then Some (mark ()) else None in
          let t0 = now () in
          let reply =
            Trace.span "serve.roundtrip" (fun () ->
                let reply = compile d.d_conn code (Some edit) in
                (* the daemon's own compile interval, as the reply states
                   it, placed at the end of the roundtrip *)
                (match reply with
                 | Ok r when traced ->
                   let t = now () in
                   Trace.record "serve.compile" (t -. (r.co_wall_ms /. 1000.0)) t
                 | _ -> ());
                reply)
          in
          let dt = now () -. t0 in
          Option.iter (fun m0 -> add_delta acc m0 (mark ())) m0;
          add_lat lats ~traced dt;
          (* the self-test's wrong answer: one tampered reply *)
          let reply =
            if inject && !requests = 3 then
              Result.map
                (fun (r : Serve.Protocol.compile_reply) ->
                  { r with co_output = r.co_output ^ "C" })
                reply
            else reply
          in
          record code (Some edit) reply;
          if traced then
            match reply with
            | Error _ -> ()
            | Ok r ->
              Acc.add acc "serve.compile_ms" r.co_wall_ms;
              Acc.add acc "serve.reuse_rate" r.co_reuse_rate;
              Acc.add acc "serve.shared_hits" (float_of_int r.co_shared_hits);
              Acc.add acc "serve.shared_lookups"
                (float_of_int r.co_shared_lookups);
              let req =
                Serve.Protocol.Compile
                  { cr_label = code.name;
                    cr_source = apply_edit code.source edit;
                    cr_check = false; cr_baseline = false; cr_pipeline = "";
                    cr_backend = "" }
              in
              Acc.add acc "serve.codec_ms"
                (1000.0 *. Trace.span "serve.codec" (fun () -> codec_s req r));
              Hashtbl.replace per_code code.name
                (r.co_wall_ms
                 :: Option.value ~default:[] (Hashtbl.find_opt per_code code.name)))
        (shuffle rng codes));
  let stats =
    match Serve.Client.stats d.d_conn with Ok j -> j | Error m -> failwith m
  in
  let report = stop_daemon d in
  let peak_rss_mb = peak_rss_mb () in
  for rep = before + 1 to setup_reps do
    ignore (stop_daemon (fst (setup rep)))
  done;
  (* the checks, after the daemon has stopped *)
  let failures = ref [] in
  let memo = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let source =
        match o.o_edit with
        | None -> o.o_code.source
        | Some e -> apply_edit o.o_code.source e
      in
      let expected =
        match Hashtbl.find_opt memo source with
        | Some r -> r
        | None ->
          let r = reference cfg source in
          Hashtbl.add memo source r;
          r
      in
      match o.o_reply with
      | Ok got when Digest.equal got expected -> ()
      | Ok _ ->
        failures :=
          Printf.sprintf "serve-edit: %s reply differs from a scratch compile"
            o.o_code.name
          :: !failures
      | Error m ->
        failures :=
          Printf.sprintf "serve-edit: %s request failed: %s" o.o_code.name m
          :: !failures)
    (List.rev !records);
  let layers =
    if not trace then []
    else begin
      let ops = List.length lats.traced in
      let ops_f = float_of_int (max 1 ops) in
      let rt_ms = 1000.0 *. sum lats.traced /. ops_f in
      let compile_ms = Acc.get acc "serve.compile_ms" /. ops_f in
      let per_request n = float_of_int n *. 16.0 /. float_of_int (max 1 !requests) in
      [ ("serve.roundtrip_ms", rt_ms);
        ("serve.compile_ms", compile_ms);
        ("serve.overhead_ms", rt_ms -. compile_ms);
        ("serve.codec_ms", Acc.get acc "serve.codec_ms" /. ops_f);
        ("serve.reuse_rate", Acc.get acc "serve.reuse_rate" /. ops_f);
        ( "serve.shared_hit_rate",
          let l = Acc.get acc "serve.shared_lookups" in
          if l = 0.0 then 0.0 else Acc.get acc "serve.shared_hits" /. l );
        ("serve.flushes", per_request report.r_flushes);
        ("serve.errors", per_request (Option.value ~default:0 (json_int stats "errors")));
        ("store.entries", float_of_int (Option.value ~default:0 (json_int stats "entries")));
        ("serve.daemon_start_s", median !starts);
        ("serve.project_open_s", median !opens);
        ("trace.overhead_frac", overhead lats) ]
      @ Hashtbl.fold
          (fun code ms acc -> ("program." ^ code ^ ".compile_ms", median ms) :: acc)
          per_code []
      @ common_layers acc ~ops
    end
  in
  { attempted = List.length !records;
    failures = List.rev !failures;
    setups = List.rev !setups;
    lat = lats.plain;
    loops_parallel;
    peak_rss_mb;
    layers }
