(* compile-lint: parse, compile under three option sets, verify.  The
   mirror image of sim-kernels: no program is run inside the timed
   operations, so the language front end, the compiler passes, sir-opt
   and the verifier do all of the work. *)

open Phpf_core

(* The ten example kernels (copies of examples/programs, so the inputs
   stay fixed while the repository's examples evolve). *)
let programs =
  [
    "appsp1d";
    "appsp2d";
    "dgefa";
    "fig1";
    "fig2";
    "fig7";
    "reduction";
    "stencil";
    "tomcatv";
    "workspace";
  ]

let dir = Filename.concat "perfbench" "programs"

(* Processor counts of the grid override; a rank-2 arrangement gets the
   near-square factorization. *)
let procs = [ 4; 16; 64; 256 ]

let option_sets = Phpf_serve.Serve.workload_option_sets

type point = { prog : string; text : string; grid : int list; p : int }

type env = {
  seed : int;
  order : (string * point * (string * Decisions.options)) list;
  digests : (string, string * string) Hashtbl.t;  (** kind -> first pass's digests *)
  mutable sir_ops : int;
  mutable xfer_ops : int;
  mutable first : (int * int) option;
  mutable priced : (float * int * int) option;  (** geomean ms, packets, bytes *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rank_of (prog : Hpf_lang.Ast.program) : int =
  let rank = ref 0 in
  List.iter
    (function
      | Hpf_lang.Ast.Processors { extents; _ } -> rank := List.length extents | _ -> ())
    prog.Hpf_lang.Ast.directives;
  !rank

let setup ~seed : env =
  let points =
    List.concat_map
      (fun name ->
        let text = read_file (Filename.concat dir (name ^ ".hpfk")) in
        let rank =
          match Hpf_lang.Parser.parse_string_result ~file:name text with
          | Ok prog -> rank_of prog
          | Error _ -> Harness.fail "%s: input does not parse" name
        in
        List.map
          (fun p -> { prog = name; text; grid = Hpf_mapping.Grid.factorize ~rank p; p })
          procs)
      programs
  in
  let kinds =
    List.concat_map
      (fun pt ->
        List.map
          (fun ((oname, _) as o) -> (Printf.sprintf "%s/P%d/%s" pt.prog pt.p oname, pt, o))
          option_sets)
      points
  in
  {
    seed;
    order = Kit.shuffle ~seed kinds;
    digests = Hashtbl.create 128;
    sir_ops = 0;
    xfer_ops = 0;
    first = None;
    priced = None;
  }

let verify ~what c options =
  match List.filter Kit.is_e06 (Kit.verify ~what c options) with
  | [] -> ()
  | d :: _ -> Harness.fail "%s: verifier reports %s" what (Fmt.str "%a" Hpf_lang.Diag.pp d)

let op env (kind, pt, (oname, options)) () =
  let what = Printf.sprintf "%s P=%d %s" pt.prog pt.p oname in
  let prog = Kit.parse pt.text in
  let c, t = Kit.compile ~grid_override:pt.grid ~options ~what prog in
  let sir = Kit.sir_of ~what c in
  let total, xfer = Kit.op_census sir in
  env.sir_ops <- env.sir_ops + total;
  env.xfer_ops <- env.xfer_ops + xfer;
  Layers.count "opt.rewrites" (float_of_int (Kit.opt_rewrites t));
  verify ~what c options;
  let d = (Hpf_comm.Comm.schedule_digest c.Compiler.comms, Kit.sir_digest sir) in
  match Hashtbl.find_opt env.digests kind with
  | None -> Hashtbl.replace env.digests kind d
  | Some d0 -> Harness.check (d0 = d) "%s: a second compile gives another schedule or Sir digest" what

let ops env =
  env.sir_ops <- 0;
  env.xfer_ops <- 0;
  List.map (fun ((kind, _, _) as k) -> (kind, op env k)) env.order

let end_pass env =
  let s = (env.sir_ops, env.xfer_ops) in
  match env.first with
  | None -> env.first <- Some s
  | Some f -> Harness.check (f = s) "Sir op counts differ between passes of one run"

(* The generated code's run time: every program under the default
   options at [priced_procs], priced once by the trace simulator after
   the timed window (pricing all four grids would triple a run's
   untimed tail for no extra coverage of the compiler). *)
let priced_procs = 16

let finish env =
  let seen = Hashtbl.create 64 in
  let results =
    List.filter_map
      (fun (_, pt, (oname, options)) ->
        if oname <> "default" || pt.p <> priced_procs || Hashtbl.mem seen pt.prog then None
        else begin
          Hashtbl.replace seen pt.prog ();
          let what = Printf.sprintf "price %s P=%d" pt.prog pt.p in
          let c, _ =
            Kit.compile ~grid_override:pt.grid ~options ~what
              (Hpf_lang.Parser.parse_string ~file:pt.prog pt.text)
          in
          Some (fst (Kit.trace_sim ~seed:env.seed c))
        end)
      env.order
  in
  env.priced <-
    Some
      ( Est.geomean (List.map (fun r -> r.Hpf_spmd.Trace_sim.time *. 1000.0) results),
        List.fold_left (fun a r -> a + r.Hpf_spmd.Trace_sim.packets) 0 results,
        List.fold_left (fun a r -> a + r.Hpf_spmd.Trace_sim.bytes) 0 results )

let work env =
  match (env.first, env.priced) with
  | Some (sir_ops, xfer_ops), Some (sim_ms, packets, bytes) ->
      Harness.
        [
          metric "sir_ops" "ops" (float_of_int sir_ops);
          metric "xfer_ops" "ops" (float_of_int xfer_ops);
          metric "sim_time_ms" "ms" sim_ms;
          metric "packets" "packets" (float_of_int packets);
          metric "wire_kb" "KB" (float_of_int bytes /. 1024.0);
        ]
  | _ -> []

let workload : env Harness.workload = { Harness.estimator = Est.steady; setup; ops; end_pass; work; finish }
