(* sim-kernels: simulate- and validate-equivalent operations on the
   paper's kernels.  The interpreters do almost all of the work here;
   compiling is a few percent. *)

open Hpf_benchmarks
open Phpf_core
open Hpf_spmd

(* Sizes are the smallest at which every paper ordering checked below
   still holds, so one pass over all kinds stays near a second. *)
let tomcatv ~p = Tomcatv.program ~n:18 ~niter:1 ~p
let dgefa ~p = Dgefa.program ~n:24 ~p
let appsp_1d ~p = Appsp.program_1d ~n:10 ~niter:1 ~p

let appsp_2d ~p =
  match Hpf_mapping.Grid.factorize ~rank:2 p with
  | [ p1; p2 ] -> Appsp.program_2d ~n:10 ~niter:1 ~p1 ~p2
  | _ -> assert false

let kernels : (string * (p:int -> Hpf_lang.Ast.program)) list =
  [
    ("tomcatv", tomcatv);
    ("dgefa", dgefa);
    ("appsp1d", appsp_1d);
    ("appsp2d", appsp_2d);
    ("fig1", fun ~p -> Fig_examples.fig1 ~n:32 ~p ());
    ("fig2", fun ~p -> Fig_examples.fig2 ~n:16 ~np:p ());
    ("fig7", fun ~p -> Fig_examples.fig7 ~n:32 ~p ());
  ]

(* Tables 1-3: (table, kernel, variant name, options, processor counts). *)
let table_procs = [ 1; 2; 4; 8; 16 ]

let cells =
  [
    ("t1", "tomcatv", "replication", Variants.replication, table_procs);
    ("t1", "tomcatv", "producer", Variants.producer_alignment, table_procs);
    ("t1", "tomcatv", "selected", Variants.selected, table_procs);
    ("t2", "dgefa", "default", Variants.no_reduction_alignment, table_procs);
    ("t2", "dgefa", "alignment", Variants.selected, table_procs);
    ("t3", "appsp1d", "priv", Variants.selected, [ 2; 4; 8; 16 ]);
    ("t3", "appsp1d", "nopriv", Variants.no_array_priv, [ 2; 4; 8; 16 ]);
    ("t3", "appsp2d", "partial", Variants.selected, [ 2; 4; 8; 16 ]);
    ("t3", "appsp2d", "nopartial", Variants.no_partial_priv, [ 2; 4; 8; 16 ]);
  ]

(* Closed-form pricing far beyond what the executor runs. *)
let price_procs = [ 64; 256; 1024 ]
let price_kernels = [ "tomcatv"; "dgefa"; "appsp2d"; "fig1" ]

(* SPMD execution with validation, both aggregation modes. *)
let spmd_procs = [ 4; 8 ]

(* The pinned crash: TOMCATV, crash in the first heartbeat window. *)
let crash_procs = 8

let no_opt = { Decisions.default_options with Decisions.optimize = false }

type pass_acc = {
  mutable sir_ops : int;
  mutable xfer_ops : int;
  mutable sim_times : float list;  (** seconds, one per priced point *)
  mutable packets : int;
  mutable bytes : int;
  mutable cell_times : (string * string * int * float) list;
}

type env = {
  seed : int;
  programs : (string * int, Hpf_lang.Ast.program) Hashtbl.t;
  order : (string * (pass_acc -> unit)) list;
  mutable acc : pass_acc;
  mutable first : (int * int * float * int * int) option;
}

let fresh_acc () =
  {
    sir_ops = 0;
    xfer_ops = 0;
    sim_times = [];
    packets = 0;
    bytes = 0;
    cell_times = [];
  }

let count_sir (acc : pass_acc) ~what (c : Compiler.compiled) t =
  let total, xfer = Kit.op_census (Kit.sir_of ~what c) in
  acc.sir_ops <- acc.sir_ops + total;
  acc.xfer_ops <- acc.xfer_ops + xfer;
  Layers.count "opt.rewrites" (float_of_int (Kit.opt_rewrites t))

let priced (acc : pass_acc) (r : Trace_sim.result) =
  acc.sim_times <- r.Trace_sim.time :: acc.sim_times;
  acc.packets <- acc.packets + r.Trace_sim.packets;
  acc.bytes <- acc.bytes + r.Trace_sim.bytes

let program env name p =
  match Hashtbl.find_opt env.programs (name, p) with
  | Some prog -> prog
  | None -> Harness.fail "no program %s at P=%d" name p

(* A Tables 1-3 cell: compile the variant, trace-simulate. *)
let cell_op env (table, kernel, variant, options, p) acc =
  let what = Printf.sprintf "%s %s/%s P=%d" table kernel variant p in
  let c, t = Kit.compile ~options ~what (program env kernel p) in
  count_sir acc ~what c t;
  let r, _ = Kit.trace_sim ~seed:env.seed c in
  priced acc r;
  acc.cell_times <- (table, variant, p, r.Trace_sim.time) :: acc.cell_times

let price_op env (kernel, p) acc =
  let what = Printf.sprintf "price %s P=%d" kernel p in
  let c, t = Kit.compile ~what (program env kernel p) in
  count_sir acc ~what c t;
  let r, _ = Kit.trace_sim ~seed:env.seed c in
  priced acc r

(* Execute on P processors in both aggregation modes, optimized and
   --no-opt, validating each against the sequential reference; then
   price with the measured traffic and compare the simulator's final
   memory with an independent sequential run. *)
let validate_op env (kernel, p) acc =
  let what = Printf.sprintf "validate %s P=%d" kernel p in
  let prog = program env kernel p in
  let c, t = Kit.compile ~what prog in
  count_sir acc ~what c t;
  let cb, tb = Kit.compile ~options:no_opt ~what:(what ^ " --no-opt") prog in
  count_sir acc ~what cb tb;
  let seed = env.seed in
  let agg = Kit.spmd_run ~aggregate:true ~seed ~what c in
  let per = Kit.spmd_run ~aggregate:false ~seed ~what c in
  Array.iteri
    (fun pid m ->
      match Kit.memory_diff m per.Spmd_interp.procs.(pid) with
      | None -> ()
      | Some d -> Harness.fail "%s: aggregated and per-element runs differ on P%d: %s" what pid d)
    agg.Spmd_interp.procs;
  Harness.check
    (agg.Spmd_interp.transfers = per.Spmd_interp.transfers)
    "%s: aggregated run moved %d elements, per-element %d" what agg.Spmd_interp.transfers
    per.Spmd_interp.transfers;
  let base = Kit.spmd_run ~aggregate:true ~seed ~what:(what ^ " --no-opt") cb in
  let m = Spmd_interp.comm_stats agg and mb = Spmd_interp.comm_stats base in
  Harness.check
    (m.Msg.packets <= mb.Msg.packets && m.Msg.bytes <= mb.Msg.bytes)
    "%s: optimized schedule ships %d packets / %d bytes, --no-opt %d / %d" what m.Msg.packets
    m.Msg.bytes mb.Msg.packets mb.Msg.bytes;
  List.iter Kit.count_msg [ m; Spmd_interp.comm_stats per; mb ];
  let r = Kit.seq_and_trace_sim ~comm_stats:m ~seed ~what c in
  priced acc r

(* One crash pinned to heartbeat window 0: the plan must repair it
   without a full restore and the run must still validate. *)
let crash_op env acc =
  let what = Printf.sprintf "crash@0 tomcatv P=%d" crash_procs in
  let c, t = Kit.compile ~what (program env "tomcatv" crash_procs) in
  count_sir acc ~what c t;
  let faults = Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, 0) ] [] in
  let st = Kit.spmd_run ~span:"recover" ~faults ~aggregate:true ~seed:env.seed ~what c in
  let rep = Spmd_interp.fault_report st in
  Harness.check (rep.Recover.restores = 0) "%s: %d full restores" what rep.Recover.restores;
  Harness.check
    (rep.Recover.plan_refetch + rep.Recover.plan_reexec > 0)
    "%s: the recovery plan never fired" what;
  Kit.count_msg (Spmd_interp.comm_stats st);
  Layers.count "recover.refetches" (float_of_int rep.Recover.plan_refetch);
  Layers.count "recover.replays" (float_of_int rep.Recover.plan_reexec);
  Layers.count "recover.restores" (float_of_int rep.Recover.restores)

(* Set-up generates every kernel instance with the benchmark-suite
   builders.  The programs are not printed and parsed back: that round
   trip changes TOMCATV's simulated compute time. *)
let setup ~seed : env =
  let programs = Hashtbl.create 64 in
  let need name p =
    if not (Hashtbl.mem programs (name, p)) then
      Hashtbl.replace programs (name, p) ((List.assoc name kernels) ~p)
  in
  List.iter (fun (_, k, _, _, ps) -> List.iter (need k) ps) cells;
  List.iter (fun k -> List.iter (need k) price_procs) price_kernels;
  List.iter (fun (k, _) -> List.iter (need k) spmd_procs) kernels;
  need "tomcatv" crash_procs;
  let env = { seed; programs; order = []; acc = fresh_acc (); first = None } in
  let ops =
    List.concat_map
      (fun (tb, k, v, o, ps) ->
        List.map (fun p -> (Printf.sprintf "cell/%s/%s/%s/P%d" tb k v p, cell_op env (tb, k, v, o, p))) ps)
      cells
    @ List.concat_map
        (fun k -> List.map (fun p -> (Printf.sprintf "price/%s/P%d" k p, price_op env (k, p))) price_procs)
        price_kernels
    @ List.concat_map
        (fun (k, _) ->
          List.map (fun p -> (Printf.sprintf "validate/%s/P%d" k p, validate_op env (k, p))) spmd_procs)
        kernels
    @ [ ("crash/tomcatv", crash_op env) ]
  in
  { env with order = Kit.shuffle ~seed ops }

let ops env =
  env.acc <- fresh_acc ();
  List.map (fun (kind, f) -> (kind, fun () -> f env.acc)) env.order

(* Paper orderings over the pass's table cells. *)
let check_orderings (acc : pass_acc) =
  let time tb v p =
    match List.find_opt (fun (t, v', p', _) -> t = tb && v' = v && p' = p) acc.cell_times with
    | Some (_, _, _, s) -> s
    | None -> Harness.fail "missing cell %s/%s P=%d" tb v p
  in
  List.iter
    (fun p ->
      if p > 1 then begin
        let s = time "t1" "selected" p in
        Harness.check
          (s < time "t1" "replication" p && s < time "t1" "producer" p)
          "Table 1: selected alignment is not fastest at P=%d" p
      end;
      Harness.check
        (time "t2" "alignment" p < time "t2" "default" p)
        "Table 2: alignment does not beat the default reduction mapping at P=%d" p)
    table_procs;
  List.iter
    (fun p ->
      if p >= 4 then begin
        Harness.check (time "t3" "priv" p < time "t3" "nopriv" p) "Table 3: 1-D privatized not faster at P=%d" p;
        Harness.check
          (time "t3" "partial" p < time "t3" "nopartial" p)
          "Table 3: 2-D partially privatized not faster at P=%d" p
      end)
    [ 2; 4; 8; 16 ]

let summary (acc : pass_acc) =
  (acc.sir_ops, acc.xfer_ops, Est.geomean acc.sim_times *. 1000.0, acc.packets, acc.bytes)

(* Work counts must repeat exactly from pass to pass. *)
let end_pass env =
  check_orderings env.acc;
  let s = summary env.acc in
  match env.first with
  | None -> env.first <- Some s
  | Some f -> Harness.check (f = s) "work counts differ between passes of one run"

let work env =
  match env.first with
  | None -> []
  | Some (sir_ops, xfer_ops, sim_ms, packets, bytes) ->
      Harness.
        [
          metric "sir_ops" "ops" (float_of_int sir_ops);
          metric "xfer_ops" "ops" (float_of_int xfer_ops);
          metric "sim_time_ms" "ms" sim_ms;
          metric "packets" "packets" (float_of_int packets);
          metric "wire_kb" "KB" (float_of_int bytes /. 1024.0);
        ]

let workload : env Harness.workload =
  { Harness.estimator = Est.steady; setup; ops; end_pass; work; finish = ignore }
