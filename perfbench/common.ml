(* Shared pieces of the benchmark: the monotonic clock, order
   statistics, the host probe, process counters, JSON output and the
   span recorder behind the traced runs. *)

(* seconds on the monotonic clock (CLOCK_MONOTONIC via bechamel) *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks (numpy's default) *)
let percentile xs p =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
         /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Process and host                                                    *)

(* VmHWM of this process in MB: the peak resident set so far *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* The host probe: two fixed CPU-only loops, one on registers and one
   chasing pointers through 8 MB (more than a core's private caches, so
   it feels a neighbour's memory traffic as the compiler does).  Timed
   before and after every run, in a child process so that its memory
   stays out of this process's peak RSS: when two sets of runs disagree,
   it tells host drift from a program change. *)
let probe () =
  let x = ref 0x2545F491 in
  let t0 = now () in
  for _ = 1 to 40_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let alu = now () -. t0 in
  let n = 1 lsl 20 in
  (* one random cycle through every slot (Sattolo's shuffle) *)
  let next = Array.init n Fun.id in
  let rng = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let p = ref 0 in
  let t1 = now () in
  for _ = 1 to 4_000_000 do
    p := next.(!p)
  done;
  let mem = now () -. t1 in
  Printf.printf "%.17g %.17g %d\n" alu mem (!x land !p land 0)

let probe_child () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--probe" |] in
  let r = Scanf.sscanf (In_channel.input_all ic) " %f %f" (fun a m -> (a, m)) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> r
  | _ -> failwith "host probe failed"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* the commit of the checkout, if it is a git work tree *)
let git_sha () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let r = String.sub head 5 (String.length head - 5) in
    (match trim (read_file (Filename.concat ".git" r)) with
     | sha -> sha
     | exception Sys_error _ -> "unknown")
  | sha -> sha

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* the benchmark's scratch area inside the checkout *)
let work_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module Json = Valid.Trace.Json

(* the integer after the first ["key":] of a JSON text *)
let json_int json key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length json then None
    else if String.sub json i n = pat then
      Some
        (Scanf.sscanf (String.sub json (i + n) (String.length json - i - n))
           "%d" Fun.id)
    else find (i + 1)
  in
  find 0

(* a float with every digit it has *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* GC and counters                                                     *)

type gc_mark = { g_words : float; g_minor : int; g_major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_words = s.minor_words +. s.major_words -. s.promoted_words;
    g_minor = s.minor_collections; g_major = s.major_collections }

(* a float accumulator keyed by metric name, kept in insertion order *)
module Acc = struct
  type t = (string, float ref) Hashtbl.t * string list ref

  let create () : t = (Hashtbl.create 64, ref [])

  let add ((h, order) : t) name v =
    match Hashtbl.find_opt h name with
    | Some r -> r := !r +. v
    | None ->
      Hashtbl.add h name (ref v);
      order := name :: !order

  let get ((h, _) : t) name =
    match Hashtbl.find_opt h name with Some r -> !r | None -> 0.0
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* One span per call the benchmark makes into a layer, recorded only in
   traced rounds.  Spans are kept in memory and written after the run. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (* -1 at the root of an op *)
  sp_op : int;
  sp_t0 : float;
  sp_t1 : float;
}

module Trace = struct
  let on = ref false
  let spans : span list ref = ref []
  let next = ref 0
  let current = ref (-1)
  let op = ref 0

  let fresh () =
    let id = !next in
    incr next;
    id

  (* a span whose interval was measured elsewhere, as a child of the
     span that is open now *)
  let record name t0 t1 =
    if !on then
      spans :=
        { sp_id = fresh (); sp_name = name; sp_parent = !current; sp_op = !op;
          sp_t0 = t0; sp_t1 = t1 }
        :: !spans

  (* time [f] as span [name]; the span is open (the parent of spans
     recorded meanwhile) while [f] runs *)
  let span name f =
    if not !on then f ()
    else begin
      let id = fresh () and parent = !current in
      current := id;
      let t0 = now () in
      let finish () =
        current := parent;
        spans :=
          { sp_id = id; sp_name = name; sp_parent = parent; sp_op = !op;
            sp_t0 = t0; sp_t1 = now () }
          :: !spans
      in
      match f () with
      | r -> finish (); r
      | exception e -> finish (); raise e
    end

  (* Self time per span name: its duration minus the part its children
     cover (children of one span never overlap: calls are sequential). *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.sp_parent >= 0 then
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)
          in
          Hashtbl.replace child s.sp_parent (prev +. (s.sp_t1 -. s.sp_t0)))
      !spans;
    let acc = Acc.create () in
    List.iter
      (fun s ->
        let kids = Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id) in
        Acc.add acc s.sp_name (s.sp_t1 -. s.sp_t0 -. kids))
      (List.rev !spans);
    List.rev_map (fun n -> (n, Acc.get acc n)) !(snd acc)

  let spans_json () =
    Json.arr
      (List.rev_map
         (fun s ->
           Json.obj
             [ ("name", Json.str s.sp_name);
               ("start", num s.sp_t0);
               ("end", num s.sp_t1);
               ("parent", Json.int s.sp_parent);
               ("id", Json.int s.sp_id);
               ("op", Json.int s.sp_op) ])
         !spans)
end

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)

(* op latencies of untraced and traced rounds, in seconds *)
type lats = { mutable plain : float list; mutable traced : float list }

let lats () = { plain = []; traced = [] }

let add_lat l ~traced dt =
  if traced then l.traced <- dt :: l.traced else l.plain <- dt :: l.plain

(* Run whole rounds until [seconds] have passed and at least [min_ops]
   untraced ops were timed, or, given [rounds], exactly that many rounds.
   [between] runs [ticks] times, between rounds, at evenly spaced points
   of the run (repeated set-ups sample the host's whole run, not just its
   first second).  In a traced run a fixed coin picks the traced rounds
   (the first is untraced, the second traced), so the tracing overhead is
   measured on interleaved rounds that share the host's drift, and
   periodic work in the program (the daemon's store flush every 64
   requests) does not alias with the choice. *)
let min_ops = 200

let run_rounds ?rounds ?(ticks = 0) ?(between = ignore) ~seconds ~trace lats
    round =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let coin = Random.State.make [| 0x7ace |] in
  let r = ref 0 and tick = ref 1 in
  let more () =
    match rounds with
    | Some n -> !r < n
    | None ->
      !r < 2
      || ((not trace) && List.compare_length_with lats.plain min_ops < 0)
      || now () < t_end
  in
  while more () do
    Trace.on := trace && (!r = 1 || (!r > 1 && Random.State.bool coin));
    round ~traced:!Trace.on;
    Trace.on := false;
    incr r;
    if !tick <= ticks
       && now () >= t0 +. (seconds *. float_of_int !tick /. float_of_int (ticks + 1))
    then begin
      between ();
      incr tick
    end
  done;
  (* a run cut short by a slow host still makes every tick *)
  while !tick <= ticks do
    between ();
    incr tick
  done

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Layer counters, read from outside through each layer's public API   *)

type mark = {
  m_cache : (string * int * int) list;
  m_dep : Dep.Driver.counters;
  m_dep_wall : float;
  m_pool : Util.Pool.counters;
  m_gc : gc_mark;
}

let mark () =
  { m_cache = Util.Cachectl.snapshot ();
    m_dep = Dep.Driver.counters_snapshot ();
    m_dep_wall = Dep.Driver.wall_snapshot ();
    m_pool = Util.Pool.counters ();
    m_gc = gc_mark () }

(* add the growth from [a] to [b] to the totals in [acc] *)
let add_delta acc (a : mark) (b : mark) =
  List.iter
    (fun (name, h, m) ->
      Acc.add acc ("cache." ^ name ^ ".hits") (float_of_int h);
      Acc.add acc ("cache." ^ name ^ ".lookups") (float_of_int (h + m)))
    (Util.Cachectl.delta ~base:a.m_cache b.m_cache);
  let d name f = Acc.add acc ("dep." ^ name) (float_of_int (f b.m_dep - f a.m_dep)) in
  d "range_proved" (fun c -> c.Dep.Driver.range_proved);
  d "range_failed" (fun c -> c.range_failed);
  d "linear_proved" (fun c -> c.linear_proved);
  d "linear_failed" (fun c -> c.linear_failed);
  d "unknown" (fun c -> c.unknown);
  Acc.add acc "dep.ms" (1000.0 *. (b.m_dep_wall -. a.m_dep_wall));
  Acc.add acc "pool.tasks" (float_of_int (b.m_pool.c_tasks - a.m_pool.c_tasks));
  Acc.add acc "pool.steals"
    (float_of_int (b.m_pool.c_steals - a.m_pool.c_steals));
  Acc.add acc "gc.alloc_mb"
    ((b.m_gc.g_words -. a.m_gc.g_words) *. float_of_int (Sys.word_size / 8)
     /. 1e6);
  Acc.add acc "gc.minor" (float_of_int (b.m_gc.g_minor - a.m_gc.g_minor));
  Acc.add acc "gc.major" (float_of_int (b.m_gc.g_major - a.m_gc.g_major))

(* The per-layer values every workload derives the same way from the
   counter totals of [ops] traced ops ([rounds] = ops / 16). *)
let common_layers acc ~ops =
  let ops_f = float_of_int (max 1 ops) in
  let per_round name = (name, Acc.get acc name *. 16.0 /. ops_f) in
  let caches =
    List.concat_map
      (fun c ->
        let h = Acc.get acc ("cache." ^ c ^ ".hits")
        and l = Acc.get acc ("cache." ^ c ^ ".lookups") in
        [ ("cache." ^ c ^ ".lookups", l *. 16.0 /. ops_f);
          ("cache." ^ c ^ ".hit_rate", if l = 0.0 then 0.0 else h /. l) ])
      (List.map (fun (n, _, _) -> n) (Util.Cachectl.snapshot ()))
  in
  [ ("dep.ms", Acc.get acc "dep.ms" /. ops_f);
    per_round "dep.range_proved"; per_round "dep.range_failed";
    per_round "dep.linear_proved"; per_round "dep.linear_failed";
    per_round "dep.unknown"; per_round "pool.tasks"; per_round "pool.steals";
    ("gc.alloc_mb_per_op", Acc.get acc "gc.alloc_mb" /. ops_f);
    ("gc.minor_per_op", Acc.get acc "gc.minor" /. ops_f);
    ("gc.major_per_op", Acc.get acc "gc.major" /. ops_f) ]
  @ caches

(* Tracing overhead: how much slower traced rounds ran than untraced
   ones, from the same run. *)
let overhead (l : lats) =
  let rate xs = float_of_int (List.length xs) /. sum xs in
  if l.plain = [] || l.traced = [] then 0.0
  else 1.0 -. (rate l.traced /. rate l.plain)

(* ------------------------------------------------------------------ *)
(* What one workload run hands back                                    *)

type outcome = {
  attempted : int;
  failures : string list;  (* one line per failed op *)
  setups : float list;     (* every set-up of the run, seconds *)
  lat : float list;        (* op latencies of untraced rounds, seconds *)
  loops_parallel : int;
  peak_rss_mb : float;     (* VmHWM when the timed loop ended *)
  layers : (string * float) list;  (* per-layer values (traced runs) *)
}
