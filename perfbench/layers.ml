(* Per-layer metrics of a traced run: span times plus the work counts
   the benchmark read at the same call sites.  Every workload prints
   every metric; a layer a workload does not exercise reads 0. *)

let lock = Mutex.create ()
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

(* Add to a named count; only while tracing, so untraced runs pay
   nothing for it. *)
let count (name : string) (v : float) =
  if Span.is_enabled () then begin
    Mutex.lock lock;
    Hashtbl.replace counts name (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0);
    Mutex.unlock lock
  end

let get name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

let compile_passes =
  [
    "sema";
    "induction";
    "decisions";
    "ctrl-priv";
    "reduction-map";
    "array-priv";
    "scalar-map";
    "comm-analysis";
    "lower-spmd";
    "sir-opt.dte";
    "sir-opt.rte";
    "sir-opt.merge";
    "sir-opt.hoist";
    "sir-opt.combine";
    "recovery-plan";
  ]

let verify_passes = [ "mapping"; "race"; "comm"; "sir"; "flow" ]

(* Every per-layer metric with its unit, in the order BENCHMARK.json
   lists them. *)
let catalogue : (string * string) list =
  [ ("lang.parse_ms", "ms") ]
  @ List.map (fun p -> ("pass." ^ p ^ "_ms", "ms")) compile_passes
  @ [ ("opt.rewrites", "count") ]
  @ List.map (fun p -> ("verify." ^ p ^ "_ms", "ms")) verify_passes
  @ [
      ("verify.flow_iterations", "count");
      ("seq.instances", "count");
      ("seq.ns_per_instance", "ns");
      ("seq.words_per_instance", "words");
      ("tracesim.ns_per_instance", "ns");
      ("tracesim.hook_ns_per_instance", "ns");
      ("tracesim.words_per_instance", "words");
      ("spmd.run_ms", "ms");
      ("spmd.validate_ms", "ms");
      ("msg.packets", "count");
      ("msg.blocks", "count");
      ("msg.elems", "count");
      ("msg.bytes", "bytes");
      ("recover.failover_ms", "ms");
      ("recover.refetches", "count");
      ("recover.replays", "count");
      ("recover.restores", "count");
      ("serve.decode_us", "us");
      ("serve.hit_us", "us");
      ("serve.miss_ms", "ms");
      ("serve.encode_us", "us");
      ("serve.queue_wait_ms", "ms");
      ("pool.busy_share", "share");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.entries", "count");
      ("cache.computed_per_entry", "ratio");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_mb", "MB");
    ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* [passes]: traced passes (rounds); per-pass figures divide by it. *)
let metrics ~(passes : int) ~(gc : float * float * float) (spans : Span.t list) :
    Harness.metric list =
  let per_pass x = x /. float_of_int (max 1 passes) in
  let total name =
    let s, w, n = Span.total spans name in
    (s, w, float_of_int n)
  in
  let ms name = let s, _, _ = total name in per_pass (s *. 1000.0) in
  let mean_s name = let s, _, n = total name in ratio s n in
  let seq_s, seq_w, _ = total "seq" in
  let ts_s, ts_w, _ = total "tracesim" in
  let seq_i = get "seq.instances" and ts_i = get "tracesim.instances" in
  let minor, major, promoted = gc in
  let value = function
    | "lang.parse_ms" -> ms "lang.parse"
    | "opt.rewrites" -> per_pass (get "opt.rewrites")
    | "verify.flow_iterations" -> per_pass (get "verify.flow_iterations")
    | "seq.instances" -> per_pass seq_i
    | "seq.ns_per_instance" -> ratio (seq_s *. 1e9) seq_i
    | "seq.words_per_instance" -> ratio seq_w seq_i
    | "tracesim.ns_per_instance" -> ratio (ts_s *. 1e9) ts_i
    | "tracesim.hook_ns_per_instance" ->
        ratio ((get "hook.tracesim_s" -. get "hook.seq_s") *. 1e9) (get "hook.instances")
    | "tracesim.words_per_instance" -> ratio ts_w ts_i
    | "spmd.run_ms" -> ms "spmd.run"
    | "spmd.validate_ms" -> ms "spmd.validate"
    | "recover.failover_ms" -> ms "recover"
    | "serve.decode_us" -> mean_s "serve.decode" *. 1e6
    | "serve.hit_us" -> mean_s "serve.hit" *. 1e6
    | "serve.miss_ms" -> mean_s "serve.miss" *. 1e3
    | "serve.encode_us" -> mean_s "serve.encode" *. 1e6
    | "serve.queue_wait_ms" -> ratio (get "serve.queue_wait_s" *. 1e3) (get "serve.requests")
    | "pool.busy_share" -> ratio (get "pool.busy_s") (get "pool.capacity_s")
    | "cache.computed_per_entry" -> ratio (get "cache.computed") (get "cache.entries")
    | "gc.minor_collections" -> per_pass minor
    | "gc.major_collections" -> per_pass major
    | "gc.promoted_mb" -> per_pass (Heap.mb_of_words promoted)
    | name when String.length name > 8 && String.sub name 0 5 = "pass." ->
        (* pass.<name>_ms *)
        ms (String.sub name 0 (String.length name - 3))
    | name when String.length name > 8 && String.sub name 0 7 = "verify." ->
        ms (String.sub name 0 (String.length name - 3))
    | name -> per_pass (get name)
  in
  List.map (fun (name, unit_) -> Harness.metric name unit_ (value name)) catalogue
