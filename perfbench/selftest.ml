(* The benchmark's own tests, run as [perfbench --self-test S]: each
   workload, fed one wrong answer, must report failed ops and exit
   non-zero; and a second seed must give the same loops_parallel, no
   failed op and the same set of per-program rows.  Every run is a
   child process of S seconds. *)

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (status, match List.rev lines with l :: _ -> l | [] -> "")

(* every ["name":{"value":v] of a result line *)
let metrics line =
  let key = "\":{\"value\":" in
  let k = String.length key in
  let rec scan i acc =
    if i + k > String.length line then List.rev acc
    else if String.sub line i k <> key then scan (i + 1) acc
    else begin
      let start = String.rindex_from line (i - 1) '"' + 1 in
      let name = String.sub line start (i - start) in
      let v =
        Scanf.sscanf (String.sub line (i + k) (String.length line - i - k)) "%f"
          Fun.id
      in
      scan (i + k) ((name, v) :: acc)
    end
  in
  scan 0 []

let failed_count line = Option.value ~default:(-1) (Common.json_int line "failed")

let run ~workloads ~seconds =
  let secs = Printf.sprintf "%g" seconds in
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      let args seed trace inject =
        [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; secs;
          "--trace"; trace ]
        @ if inject then [ "--inject" ] else []
      in
      (* the checks catch a wrong answer *)
      let status, line = run_child (args 1 "0" true) in
      let m = metrics line in
      expect (w ^ ": a wrong answer exits non-zero") (status <> Unix.WEXITED 0);
      expect
        (w ^ ": a wrong answer is a failed op")
        (failed_count line > 0
         && List.assoc_opt "ops_ok_frac" m < Some 1.0);
      (* a second seed *)
      let plain seed = run_child (args seed "0" false) in
      let (s1, l1), (s2, l2) = (plain 1, plain 2) in
      let m1 = metrics l1 and m2 = metrics l2 in
      expect (w ^ ": seeds 1 and 2 exit 0") (s1 = Unix.WEXITED 0 && s2 = Unix.WEXITED 0);
      expect
        (w ^ ": seeds 1 and 2 report the same loops_parallel")
        (List.assoc_opt "loops_parallel" m1 = List.assoc_opt "loops_parallel" m2
         && List.assoc_opt "loops_parallel" m1 <> None);
      expect
        (w ^ ": seeds 1 and 2 report no failed op")
        (List.assoc_opt "ops_ok_frac" m1 = Some 1.0
         && List.assoc_opt "ops_ok_frac" m2 = Some 1.0);
      let programs seed =
        let _, line = run_child (args seed "1" false) in
        List.filter_map
          (fun (name, v) ->
            if String.length name > 8 && String.sub name 0 8 = "program." && v > 0.0
            then Some name
            else None)
          (metrics line)
      in
      let p1 = programs 1 and p2 = programs 2 in
      expect
        (w ^ ": seeds 1 and 2 report the same per-program rows")
        (p1 <> [] && p1 = p2))
    workloads;
  if not !ok then exit 1
