(* Calls into the program's layers, each wrapped in its span, plus the
   helpers the correctness checks share. *)

open Phpf_core
open Hpf_spmd
module Pipeline = Phpf_driver.Pipeline

(* Attach one span per executed pass of a pipeline trace, laid end to
   end from [start] (the pipeline runs its passes one after another). *)
let add_pass_spans ~(name : string -> string) ~(start : float) (t : Pipeline.trace) =
  if Span.is_enabled () then
    ignore
      (List.fold_left
         (fun at (e : Pipeline.entry) ->
           let stop = at +. e.Pipeline.time_s in
           Span.add ~name:(name e.Pipeline.pass) ~start:at ~stop;
           stop)
         start t.Pipeline.entries)

let parse (text : string) : Hpf_lang.Ast.program =
  Span.with_ "lang.parse" (fun () ->
      match Hpf_lang.Parser.parse_string_result ~file:"<perfbench>" text with
      | Ok p -> p
      | Error ds -> Harness.fail "parse: %s" (Fmt.str "%a" Hpf_lang.Diag.pp_list ds))

let compile ?grid_override ?(options = Decisions.default_options) ~(what : string)
    (prog : Hpf_lang.Ast.program) : Compiler.compiled * Pipeline.trace =
  Span.with_ "compile" (fun () ->
      let start = Unix.gettimeofday () in
      match Compiler.compile_traced ?grid_override ~options prog with
      | Ok (c, t) ->
          add_pass_spans ~name:(fun p -> "pass." ^ p) ~start t;
          (c, t)
      | Error ds -> Harness.fail "%s: compile: %s" what (Fmt.str "%a" Hpf_lang.Diag.pp_list ds))

let sir_of ~what (c : Compiler.compiled) : Phpf_ir.Sir.program =
  match c.Compiler.sir with
  | Some s -> s
  | None -> Harness.fail "%s: no lowered program" what

let sir_digest (s : Phpf_ir.Sir.program) : string =
  Digest.to_hex (Digest.string (Phpf_ir.Sir_pp.to_string s))

(* Total ops of the lowered program, and its transfer and reduce ops. *)
let op_census (s : Phpf_ir.Sir.program) : int * int =
  let k = Phpf_ir.Sir.op_counts s in
  ( Phpf_ir.Sir.total_ops k,
    k.Phpf_ir.Sir.elem_xfers + k.Phpf_ir.Sir.whole_xfers + k.Phpf_ir.Sir.block_xfers
    + k.Phpf_ir.Sir.reduce_ops )

(* Rewrites the sir-opt passes recorded in a compile trace. *)
let opt_rewrites (t : Pipeline.trace) : int =
  List.fold_left
    (fun acc pass ->
      match Pipeline.stats_of t ("sir-opt." ^ pass) with
      | None -> acc
      | Some stats ->
          List.fold_left
            (fun acc (k, v) ->
              if String.length k >= 8 && String.sub k (String.length k - 8) 8 = "rewrites"
              then acc + v
              else acc)
            acc stats)
    0 Phpf_ir.Sir_opt.pass_names

(* Bit-for-bit value equality (floats compared by their bits). *)
let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.R x, Value.R y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

(* First difference between two memories over the arrays and scalars
   of [a], if any. *)
let memory_diff (a : Memory.t) (b : Memory.t) : string option =
  let diff = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !diff = None then diff := Some s) fmt in
  Hashtbl.iter
    (fun name va ->
      match Hashtbl.find_opt b.Memory.scalars name with
      | Some vb when same_value va vb -> ()
      | _ -> note "scalar %s differs" name)
    a.Memory.scalars;
  Hashtbl.iter
    (fun name _ ->
      if !diff = None then
        if not (Hashtbl.mem b.Memory.arrays name) then note "array %s missing" name
        else
          Memory.iter_elems a name (fun idx va ->
              if !diff = None && not (same_value va (Memory.get_elem b name idx)) then
                note "%s(%s) differs" name (String.concat "," (List.map string_of_int idx))))
    a.Memory.arrays;
  !diff

let seq_run ~seed (c : Compiler.compiled) : Memory.t =
  Span.with_ "seq" (fun () -> Seq_interp.run ~init:(Init.init ~seed c.Compiler.prog) c.Compiler.prog)

(* [lowered] prices the lowered Sir schedule; without it the simulator
   prices the compiler's communication descriptors, as the serve
   engine's simulate action does. *)
let trace_sim ?comm_stats ?(lowered = true) ~seed (c : Compiler.compiled) :
    Trace_sim.result * Memory.t =
  let sir = if lowered then c.Compiler.sir else None in
  let ((r, _) as res) =
    Span.with_ "tracesim" (fun () ->
        Trace_sim.run ~init:(Init.init ~seed c.Compiler.prog) ?comm_stats ?sir c)
  in
  Layers.count "tracesim.instances" (float_of_int r.Trace_sim.stmt_instances);
  res

(* Seq_interp and Trace_sim on one program, timed side by side: their
   difference per statement instance is the simulator's hook cost.  The
   simulator's final memory must equal the sequential run's. *)
let seq_and_trace_sim ?comm_stats ?lowered ~seed ~what (c : Compiler.compiled) :
    Trace_sim.result =
  let t0 = Unix.gettimeofday () in
  let reference = seq_run ~seed c in
  let t1 = Unix.gettimeofday () in
  let r, mem = trace_sim ?comm_stats ?lowered ~seed c in
  let t2 = Unix.gettimeofday () in
  (match memory_diff reference mem with
  | None -> ()
  | Some d -> Harness.fail "%s: trace simulator's final memory differs from Seq_interp: %s" what d);
  let inst = float_of_int r.Trace_sim.stmt_instances in
  Layers.count "seq.instances" inst;
  Layers.count "hook.instances" inst;
  Layers.count "hook.seq_s" (t1 -. t0);
  Layers.count "hook.tracesim_s" (t2 -. t1);
  r

let count_msg (m : Msg.stats) =
  Layers.count "msg.packets" (float_of_int m.Msg.packets);
  Layers.count "msg.blocks" (float_of_int m.Msg.blocks);
  Layers.count "msg.elems" (float_of_int m.Msg.elems);
  Layers.count "msg.bytes" (float_of_int m.Msg.bytes)

let spmd_run ?(span = "spmd.run") ?faults ~aggregate ~seed ~what (c : Compiler.compiled) :
    Spmd_interp.t =
  let st =
    Span.with_ span (fun () ->
        Spmd_interp.run ~init:(Init.init ~seed c.Compiler.prog) ?faults ~aggregate
          ?sir:c.Compiler.sir c)
  in
  (match Span.with_ "spmd.validate" (fun () -> Spmd_interp.validate st) with
  | [] -> ()
  | m :: _ ->
      Harness.fail "%s (aggregate=%b): SPMD result differs from the sequential reference: %s"
        what aggregate (Fmt.str "%a" Spmd_interp.pp_mismatch m));
  st

(* The full verifier; any E06xx soundness error fails the check.
   Verifier passes are named verify-NAME; their spans verify.NAME. *)
let verify ~what (c : Compiler.compiled) (options : Decisions.options) : Hpf_lang.Diag.t list =
  Span.with_ "verify" (fun () ->
      let start = Unix.gettimeofday () in
      match Phpf_verify.Verifier.verify ~opts:options c with
      | Ok (findings, t) ->
          let strip p = String.sub p 7 (String.length p - 7) in
          add_pass_spans ~name:(fun p -> "verify." ^ strip p) ~start t;
          (match Pipeline.stats_of t "verify-flow" with
          | Some stats ->
              Layers.count "verify.flow_iterations"
                (float_of_int (Option.value (List.assoc_opt "flow.iterations" stats) ~default:0))
          | None -> ());
          findings
      | Error ds -> Harness.fail "%s: verifier failed: %s" what (Fmt.str "%a" Hpf_lang.Diag.pp_list ds))

let is_e06 (d : Hpf_lang.Diag.t) =
  d.Hpf_lang.Diag.severity = Hpf_lang.Diag.Error
  && String.length d.Hpf_lang.Diag.code >= 3
  && String.sub d.Hpf_lang.Diag.code 0 3 = "E06"

(* Deterministic Fisher-Yates shuffle driven by the benchmark seed. *)
let shuffle ~(seed : int) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Init.mix seed [ i ] mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
