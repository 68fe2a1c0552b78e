(* serve-skew: a closed loop of serve request lines through Proto,
   Engine, Memo, Pool and the response encoder, with a fresh engine
   every round and one pool for the whole run.  The only workload that uses the serve layers and
   the cache, and the one that shows duplicate work: two clients that
   take back-to-back requests for one fresh key both compute it. *)

module Engine = Phpf_serve.Engine
module Proto = Phpf_serve.Proto
module Pool = Phpf_serve.Pool
module Serve = Phpf_serve.Serve
open Phpf_core

(* Request programs: the paper kernels at sizes where one simulate
   request costs a few milliseconds. *)
let programs = [ "tomcatv"; "dgefa"; "appsp2d"; "fig1"; "fig2"; "fig7" ]
let program_procs = 4

(* The serve stress workload's option sets without the array
   privatization ablation, which compile-lint covers. *)
let option_sets = List.filter (fun (name, _) -> name <> "no-array-priv") Serve.workload_option_sets

(* Popularity: the key of seed-drawn rank r (1-based) is requested
   2 + hot / r times in a row, so every key repeats back to back and a
   few keys dominate.  36 keys stay far below the engine's default
   cache capacity (4096), so nothing is evicted. *)
let hot = 16

type key = { kname : string; request : Proto.request }

type env = {
  domains : int;
  keys : key list;  (** distinct keys, in first-arrival order *)
  lines : string array;  (** one round of request lines, in order *)
  key_of : int array;  (** request index -> index into [keys] *)
  mutable pool : Pool.t option;
      (** started by the first round, shut down by [finish] *)
  mutable first_digest : string option;
  mutable work : Harness.metric list;
}

let setup ~seed : env =
  let keys =
    List.concat_map
      (fun prog ->
        let text =
          Hpf_lang.Pp.program_to_string ((List.assoc prog Sim_kernels.kernels) ~p:program_procs)
        in
        List.concat_map
          (fun (oname, options) ->
            List.map
              (fun action ->
                {
                  kname = Printf.sprintf "%s/%s/%s" prog oname (Proto.action_to_string action);
                  request = { Proto.id = 0; action; program = text; grid = None; options };
                })
              Serve.workload_actions)
          option_sets)
      programs
    |> Kit.shuffle ~seed
  in
  let repeats = List.mapi (fun rank k -> (k, 2 + (hot / (rank + 1)))) keys in
  (* arrival order of the keys is a second, independent draw *)
  let arrivals = Kit.shuffle ~seed:(seed + 1) (List.mapi (fun i (k, n) -> (i, k, n)) repeats) in
  let seq =
    List.concat_map (fun (i, k, n) -> List.init n (fun _ -> (i, k))) arrivals |> Array.of_list
  in
  let keys_in_order = List.map (fun (_, k, _) -> k) arrivals in
  let index_of = Hashtbl.create 64 in
  List.iteri (fun j (i, _, _) -> Hashtbl.replace index_of i j) arrivals;
  {
    domains = max 1 (Domain.recommended_domain_count ());
    keys = keys_in_order;
    lines =
      Array.mapi
        (fun pos (_, k) -> Proto.request_to_line { k.request with Proto.id = pos + 1 })
        seq;
    key_of = Array.map (fun (i, _) -> Hashtbl.find index_of i) seq;
    pool = None;
    first_digest = None;
    work = [];
  }

let now = Unix.gettimeofday

(* One request: decode the line, evaluate, encode the response. *)
let serve_one engine (line : string) ~(pos : int) : Engine.outcome =
  let req =
    Span.with_ "serve.decode" (fun () ->
        match Proto.request_of_line ~default_id:(pos + 1) line with
        | Ok r -> r
        | Error rej -> Harness.fail "request %d rejected: %s" (pos + 1) rej.Proto.reason)
  in
  let t0 = now () in
  let o = Engine.handle engine req in
  Span.add ~name:(if o.Engine.cached then "serve.hit" else "serve.miss") ~start:t0 ~stop:(now ());
  ignore (Span.with_ "serve.encode" (fun () -> Serve.response_line ~timing:false o));
  o

(* The pool lives for the whole run, as the daemon's does.  A pool
   spawned and joined every round left the peak RSS growing with the
   number of rounds (26 MB after 5 s, 160-227 MB after 35 s). *)
let pool env =
  match env.pool with
  | Some p -> p
  | None ->
      let p = Pool.create ~domains:env.domains in
      env.pool <- Some p;
      p

(* One round: [domains] closed-loop clients share the request sequence;
   each takes the next request only after its previous one completed,
   and resubmits itself to the pool for it. *)
let round env () =
  let engine = Engine.create () in
  let pool = pool env in
  let n = Array.length env.lines in
  let outcomes = Array.make n None in
  let errors = Array.make n None in
  let cursor = Atomic.make 0 in
  let lock = Mutex.create () and all_done = Condition.create () in
  let live = ref env.domains in
  let t_round = now () in
  let parent = Span.current_id () in
  let rec client submitted () =
    let start = now () in
    let pos = Atomic.fetch_and_add cursor 1 in
    if pos >= n then begin
      Mutex.lock lock;
      decr live;
      if !live = 0 then Condition.signal all_done;
      Mutex.unlock lock
    end
    else begin
      Layers.count "serve.queue_wait_s" (start -. submitted);
      Layers.count "serve.requests" 1.0;
      (match
         Span.with_ ~parent ~rid:(pos + 1) "serve.request" (fun () ->
             serve_one engine env.lines.(pos) ~pos)
       with
      | o -> outcomes.(pos) <- Some o
      | exception e -> errors.(pos) <- Some (Printexc.to_string e));
      let stop = now () in
      Layers.count "pool.busy_s" (stop -. start);
      Pool.submit pool (client stop)
    end
  in
  for _ = 1 to env.domains do
    Pool.submit pool (client (now ()))
  done;
  Mutex.lock lock;
  while !live > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  Layers.count "pool.capacity_s" (float_of_int env.domains *. (now () -. t_round));
  let c = Engine.cache_counters engine in
  Layers.count "cache.hits" (float_of_int c.Phpf_driver.Memo.hits);
  Layers.count "cache.misses" (float_of_int c.Phpf_driver.Memo.misses);
  Layers.count "cache.entries" (float_of_int c.Phpf_driver.Memo.entries);
  Layers.count "cache.computed" (float_of_int (Engine.computed_count engine));
  let bodies =
    Array.mapi
      (fun pos o ->
        match (o, errors.(pos)) with
        | _, Some e -> Harness.fail "request %d raised %s" (pos + 1) e
        | None, None -> Harness.fail "request %d was never served" (pos + 1)
        | Some o, None ->
            Harness.check o.Engine.ok "request %d (%s) answered an error: %s" (pos + 1)
              (List.nth env.keys env.key_of.(pos)).kname o.Engine.body;
            o.Engine.body)
      outcomes
  in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list bodies))) in
  match env.first_digest with
  | None -> env.first_digest <- Some digest
  | Some d -> Harness.check (d = digest) "response bodies differ between rounds"

let ops env = [ ("round", round env) ]

(* While tracing, re-run each distinct key once through the public
   layer functions, calling them as Engine.compute does, so the
   per-pass and interpreter figures show what a miss spends inside the
   engine.  Simulate keys also run Seq_interp beside Trace_sim, for the
   hook cost. *)
let end_pass env =
  if Span.is_enabled () then
    List.iter
      (fun k ->
        let r = k.request in
        let what = k.kname in
        let c, t = Kit.compile ~options:r.Proto.options ~what (Kit.parse r.Proto.program) in
        Layers.count "opt.rewrites" (float_of_int (Kit.opt_rewrites t));
        match r.Proto.action with
        | Proto.Compile -> ()
        | Proto.Lint -> ignore (Kit.verify ~what c r.Proto.options)
        | Proto.Simulate ->
            (* Engine.compute prices the comm descriptors under
               Init's default seed *)
            ignore (Kit.seq_and_trace_sim ~lowered:false ~seed:42 ~what c))
      env.keys

let body_num (body : string) (field : string) : float =
  match Phpf_serve.Jsonx.member field (Phpf_serve.Jsonx.of_string body) with
  | Some v -> (
      match Phpf_serve.Jsonx.to_float_opt v with
      | Some f -> f
      | None -> Harness.fail "response field %s is not a number" field)
  | None -> Harness.fail "response has no field %s" field

(* The reference: every distinct key evaluated once, sequentially, on a
   fresh engine that never sees a repeat, so nothing is served from
   the cache and nothing runs concurrently. *)
let finish env =
  Option.iter Pool.shutdown env.pool;
  env.pool <- None;
  let engine = Engine.create () in
  let bodies =
    List.map
      (fun k ->
        let o = Engine.handle engine k.request in
        Harness.check (o.Engine.ok && not o.Engine.cached) "reference %s failed" k.kname;
        o.Engine.body)
      env.keys
    |> Array.of_list
  in
  let expected =
    Digest.to_hex
      (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun i -> bodies.(i)) env.key_of))))
  in
  Harness.check
    (env.first_digest = Some expected)
    "served response bodies differ from the uncached sequential evaluation";
  let sims =
    List.filteri (fun i _ -> (List.nth env.keys i).request.Proto.action = Proto.Simulate) (Array.to_list bodies)
  in
  let sir_ops, xfer_ops =
    List.fold_left
      (fun (a, b) k ->
        let r = k.request in
        let c =
          Compiler.compile_exn ~options:r.Proto.options (Hpf_lang.Parser.parse_string r.Proto.program)
        in
        let t, x = Kit.op_census (Kit.sir_of ~what:k.kname c) in
        (a + t, b + x))
      (0, 0) env.keys
  in
  env.work <-
    Harness.
      [
        metric "sir_ops" "ops" (float_of_int sir_ops);
        metric "xfer_ops" "ops" (float_of_int xfer_ops);
        metric "sim_time_ms" "ms" (Est.geomean (List.map (fun b -> body_num b "time" *. 1000.0) sims));
        metric "packets" "packets" (List.fold_left (fun a b -> a +. body_num b "packets") 0.0 sims);
        metric "wire_kb" "KB" (List.fold_left (fun a b -> a +. body_num b "bytes") 0.0 sims /. 1024.0);
      ]

(* A round's work depends on how the two clients' requests interleave
   (a raced key is computed twice), so its fastest sample is a lucky
   interleaving, not the round's cost; the median round repeats. *)
let workload : env Harness.workload =
  {
    Harness.estimator = Est.median;
    setup;
    ops;
    end_pass;
    work = (fun env -> env.work);
    finish;
  }
