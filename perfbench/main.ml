(* perfbench: runs one named workload of the phpf benchmark and prints
   its metrics as the last line of standard output.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

let workloads = [ "sim-kernels"; "compile-lint"; "serve-skew" ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload %s --seed N --seconds S --trace 0|1\n%!"
    (String.concat "|" workloads);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let seconds = float_of_int seconds in
  let go w = Harness.execute w ~name ~seed ~seconds ~trace ~layer_metrics:Layers.metrics in
  let ok =
    match name with
    | "sim-kernels" -> go Sim_kernels.workload
    | "compile-lint" -> go Compile_lint.workload
    | "serve-skew" -> go Serve_skew.workload
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
