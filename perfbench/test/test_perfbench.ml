(* The benchmark's own arithmetic: geometric mean, timing estimator,
   nearest-rank percentiles, allocation readings and span self time. *)

let close = Alcotest.float 1e-9

let test_geomean () =
  Alcotest.check close "two values" 4.0 (Est.geomean [ 2.0; 8.0 ]);
  Alcotest.check close "one value" 3.5 (Est.geomean [ 3.5 ]);
  Alcotest.check close "scales with its inputs" (10.0 *. Est.geomean [ 1.0; 3.0; 9.0 ])
    (Est.geomean [ 10.0; 30.0; 90.0 ]);
  Alcotest.check close "order-free" (Est.geomean [ 1.0; 2.0; 7.0 ]) (Est.geomean [ 7.0; 1.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Est.geomean: empty") (fun () ->
      ignore (Est.geomean []));
  Alcotest.check_raises "zero" (Invalid_argument "Est.geomean: non-positive value") (fun () ->
      ignore (Est.geomean [ 1.0; 0.0 ]))

let test_steady () =
  Alcotest.check close "fastest sample" 1.5 (Est.steady [ 3.0; 1.5; 2.0; 9.0 ]);
  Alcotest.check close "noise only adds" 1.0 (Est.steady [ 1.0; 1.0 +. 1e-3; 5.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Est.steady: no samples") (fun () ->
      ignore (Est.steady []))

let ten = List.init 10 (fun i -> float_of_int (10 - i))

let test_percentile () =
  (* nearest rank: the sample at 1-based rank ceil(p/100 * n) *)
  Alcotest.check close "p50 of 1..10" 5.0 (Est.percentile 50.0 ten);
  Alcotest.check close "p90 of 1..10" 9.0 (Est.percentile 90.0 ten);
  Alcotest.check close "p95 rounds the rank up" 10.0 (Est.percentile 95.0 ten);
  Alcotest.check close "p10 of 1..10" 1.0 (Est.percentile 10.0 ten);
  Alcotest.check close "p100 is the largest" 10.0 (Est.percentile 100.0 ten);
  Alcotest.check close "tiny p is the smallest" 1.0 (Est.percentile 0.1 ten);
  Alcotest.check close "median of an even count is a sample" 2.0
    (Est.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "p = 0" (Invalid_argument "Est.percentile: rank outside (0, 100]")
    (fun () -> ignore (Est.percentile 0.0 ten));
  Alcotest.(check (option (float 0.0))) "no tail below forty samples" None (Est.tail_rank 39);
  Alcotest.(check (option (float 0.0))) "p75 at forty" (Some 75.0) (Est.tail_rank 40);
  Alcotest.(check (option (float 0.0))) "p90 at a hundred" (Some 90.0) (Est.tail_rank 100);
  Alcotest.(check (option (float 0.0))) "p99 at a thousand" (Some 99.0) (Est.tail_rank 1000)

(* Allocate about [n] words on the calling domain. *)
let churn n =
  let acc = ref [] in
  for i = 1 to n / 3 do
    acc := [ i ];
    ignore (Sys.opaque_identity !acc)
  done

let words = 3_000_000

let test_alloc_single () =
  let w0 = Heap.allocated_words () in
  churn words;
  let d = Heap.allocated_words () -. w0 in
  Alcotest.(check bool) "about the words allocated" true (d >= 0.95 *. float_of_int words && d <= 1.1 *. float_of_int words)

(* Two domains doing equal work: quick_stat after joining them counts
   both, while the calling domain's own counter sees neither. *)
let test_alloc_joined () =
  let w0 = Heap.allocated_words () and d0 = Heap.domain_words () in
  let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> churn words)) in
  List.iter Domain.join ds;
  let total = Heap.allocated_words () -. w0 and own = Heap.domain_words () -. d0 in
  let w = float_of_int words in
  Alcotest.(check bool)
    (Printf.sprintf "joined domains summed (%.0f words)" total)
    true
    (total >= 1.9 *. w && total <= 2.3 *. w);
  Alcotest.(check bool) (Printf.sprintf "calling domain alone (%.0f words)" own) true (own < 0.1 *. w)

(* Live domains count too, up to the minor heap each has not yet
   collected. *)
let test_alloc_live () =
  let w0 = Heap.allocated_words () in
  let go = Atomic.make false and ready = Atomic.make 0 in
  let ds =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            churn words;
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  let total = Heap.allocated_words () -. w0 in
  Atomic.set go true;
  List.iter Domain.join ds;
  let w = float_of_int words in
  Alcotest.(check bool)
    (Printf.sprintf "live domains summed (%.0f words)" total)
    true
    (total >= 1.7 *. w && total <= 2.3 *. w)

let test_mb () = Alcotest.check close "8-byte words" 8.0 (Heap.mb_of_words 1e6)

let test_covered () =
  Alcotest.check close "overlaps merge" 3.0 (Span.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 4.0) ]);
  Alcotest.check close "clipped to the parent" 1.5 (Span.covered ~lo:0.0 ~hi:2.0 [ (1.0, 5.0); (-1.0, 0.5) ]);
  Alcotest.check close "disjoint add" 2.0 (Span.covered ~lo:0.0 ~hi:10.0 [ (5.0, 6.0); (1.0, 2.0) ])

let test_self_time () =
  let mk id parent start stop = { Span.id; name = "x"; parent; rid = 1; start; stop; words = 0.0 } in
  let spans = [ mk 1 0 0.0 10.0; mk 2 1 1.0 4.0; mk 3 1 3.0 6.0; mk 4 2 1.0 2.0 ] in
  let self = List.map (fun (s, t) -> (s.Span.id, t)) (Span.self_times spans) in
  Alcotest.check close "parent minus children" 5.0 (List.assoc 1 self);
  Alcotest.check close "child minus grandchild" 2.0 (List.assoc 2 self);
  Alcotest.check close "leaf" 3.0 (List.assoc 3 self)

let () =
  Alcotest.run "perfbench"
    [
      ( "estimators",
        [
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "steady estimator" `Quick test_steady;
          Alcotest.test_case "percentile rank rule" `Quick test_percentile;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "single domain" `Quick test_alloc_single;
          Alcotest.test_case "quick_stat sums joined domains" `Quick test_alloc_joined;
          Alcotest.test_case "quick_stat sums live domains" `Quick test_alloc_live;
          Alcotest.test_case "words to MB" `Quick test_mb;
        ] );
      ( "spans",
        [
          Alcotest.test_case "interval cover" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
