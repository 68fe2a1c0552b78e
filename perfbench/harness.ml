(* The measurement loop shared by every workload: repeated set-up,
   whole passes over the workload's operation kinds until the run's
   time is spent, per-kind samples, allocation per pass, and the result
   line. *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check_failed s)) fmt

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type 'env workload = {
  estimator : float list -> float;
      (** one operation kind's samples -> its steady time *)
  setup : seed:int -> 'env;
      (** once-per-session work before the first operation *)
  ops : 'env -> (string * (unit -> unit)) list;
      (** one pass: every operation kind once, in the seed's order *)
  end_pass : 'env -> unit;
      (** checks over a whole pass (orderings, repeatable counts) *)
  work : 'env -> metric list;  (** end-to-end work counts of one pass *)
  finish : 'env -> unit;  (** checks run once after the timed window *)
}

type run = {
  samples : (string, float list) Hashtbl.t;  (** per kind, seconds *)
  mutable passes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable pass_words : float list;
  mutable errors : string list;
}

let now = Unix.gettimeofday

(* One pass over the operation kinds.  An operation that raises counts
   as failed; a failed check ends the run. *)
let pass (w : 'env workload) (env : 'env) (r : run) =
  let w0 = Heap.allocated_words () in
  List.iteri
    (fun i (kind, f) ->
      r.attempted <- r.attempted + 1;
      let t0 = now () in
      (match Span.with_ ~rid:((r.passes * 100_000) + i + 1) "op" f with
      | () ->
          let dt = now () -. t0 in
          Hashtbl.replace r.samples kind
            (dt :: Option.value (Hashtbl.find_opt r.samples kind) ~default:[])
      | exception (Check_failed _ as e) -> raise e
      | exception e ->
          r.failed <- r.failed + 1;
          r.errors <- Printf.sprintf "%s: %s" kind (Printexc.to_string e) :: r.errors))
    (w.ops env);
  w.end_pass env;
  r.pass_words <- (Heap.allocated_words () -. w0) :: r.pass_words;
  r.passes <- r.passes + 1

(* Steady time of one operation: each kind's samples reduced by the
   workload's estimator, combined across kinds by geometric mean. *)
let op_ms (estimator : float list -> float) (r : run) : float =
  Hashtbl.fold (fun _ xs acc -> estimator xs :: acc) r.samples []
  |> Est.geomean
  |> ( *. ) 1000.0

(* op_ms under other per-kind estimators (nearest-rank percentiles of
   each kind's samples, combined the same way), for the record beside
   the steady figure. *)
let op_ms_at (p : float) (r : run) : float = op_ms (Est.percentile p) r

let pp_spread ppf (label : string) (r : run) =
  let n = Hashtbl.fold (fun _ xs acc -> min acc (List.length xs)) r.samples max_int in
  Format.fprintf ppf "%s: %d kinds, >= %d samples each; op_ms fastest %.4f, p25 %.4f, median %.4f"
    label (Hashtbl.length r.samples) n (op_ms Est.steady r) (op_ms_at 25.0 r) (op_ms_at 50.0 r);
  (match Est.tail_rank n with
  | Some p -> Format.fprintf ppf ", p%g %.4f" p (op_ms_at p r)
  | None -> ());
  Format.fprintf ppf "@."

let fresh_run () =
  { samples = Hashtbl.create 64; passes = 0; attempted = 0; failed = 0; pass_words = []; errors = [] }

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let setup_repeats = 15

let gc_counts () =
  let s = Gc.quick_stat () in
  (float_of_int s.Gc.minor_collections, float_of_int s.Gc.major_collections, s.Gc.promoted_words)

let execute (w : 'env workload) ~(name : string) ~(seed : int) ~(seconds : float)
    ~(trace : bool)
    ~(layer_metrics : passes:int -> gc:float * float * float -> Span.t list -> metric list) :
    bool =
  let untraced = fresh_run () and traced = fresh_run () in
  let setups = ref [] and gc = ref (0.0, 0.0, 0.0) in
  (* Set-up is timed once and [setup_repeats] more times before the
     first pass, and [setup_repeats] times after the last, each from a
     collected heap, so both ends of the run count; only the first
     set-up's environment is kept.  Nothing runs between passes, so the
     memory figures show the collector's own pacing. *)
  let timed_setup () =
    Gc.full_major ();
    let t0 = now () in
    let env = w.setup ~seed in
    setups := (now () -. t0) :: !setups;
    env
  in
  let repeat_setup () =
    for _ = 1 to setup_repeats do
      ignore (Sys.opaque_identity (timed_setup ()))
    done
  in
  let result =
    try
      let env = timed_setup () in
      repeat_setup ();
      let t0 = now () in
      (* A traced run alternates untraced and traced passes, so both
         sides see the same stretches of host speed: the difference of
         their op_ms is the tracing overhead. *)
      let traced_pass () =
        Span.enable ();
        let m0, j0, p0 = gc_counts () in
        pass w env traced;
        let m1, j1, p1 = gc_counts () in
        Span.disable ();
        let m, j, p = !gc in
        gc := (m +. m1 -. m0, j +. j1 -. j0, p +. p1 -. p0)
      in
      while untraced.passes = 0 || (trace && traced.passes = 0) || now () -. t0 < seconds do
        if trace && traced.passes < untraced.passes then traced_pass () else pass w env untraced
      done;
      repeat_setup ();
      w.finish env;
      Some env
    with Check_failed msg ->
      Span.disable ();
      Printf.eprintf "perfbench %s: check failed: %s\n%!" name msg;
      None
  in
  let runs = if trace then [ untraced; traced ] else [ untraced ] in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 runs in
  List.iter (fun r -> List.iter (Printf.eprintf "perfbench %s: failed %s\n%!" name) r.errors) runs;
  match result with
  | None ->
      print_result ~correct:false ~attempted ~failed [];
      false
  | Some env ->
      pp_spread Format.err_formatter "untraced" untraced;
      let metrics =
        if not trace then
          let peak =
            match Heap.peak_rss_mb () with
            | Some mb -> mb
            | None -> Heap.mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)
          in
          [
            metric "setup_s" "s" (Est.median !setups);
            metric "op_ms" "ms" (op_ms w.estimator untraced);
            metric "alloc_mb" "MB" (Heap.mb_of_words (Est.median untraced.pass_words));
            metric "peak_rss_mb" "MB" peak;
          ]
          @ w.work env
        else begin
          pp_spread Format.err_formatter "traced" traced;
          let traced_ms = op_ms w.estimator traced and untraced_ms = op_ms w.estimator untraced in
          Printf.eprintf "tracing overhead: %.4f ms per op (traced %.4f - untraced %.4f)\n%!"
            (traced_ms -. untraced_ms) traced_ms untraced_ms;
          let spans = Span.take () in
          Format.eprintf "%a%!" Span.pp_table (Span.table spans);
          (try
             let dir = Filename.concat "perfbench" "out" in
             if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
             Span.write_json
               (Filename.concat dir (Printf.sprintf "spans-%s-%d.json" name seed))
               spans
           with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n%!" e);
          layer_metrics ~passes:traced.passes ~gc:!gc spans
        end
      in
      print_result ~correct:true ~attempted ~failed metrics;
      true
