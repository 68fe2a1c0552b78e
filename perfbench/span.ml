(* In-memory spans around the benchmark's calls into each layer.
   Recording is off unless [enable] was called, so an untraced run pays
   one [Atomic.get] per call site.  Spans are kept in memory and written
   out once, when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** enclosing span on the same domain, 0 at top level *)
  rid : int;  (** request (operation) identifier shared by its spans *)
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  words : float;  (** words the recording domain allocated inside *)
}

let enabled = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []

(* Enclosing span id and request id of the running domain. *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, 0))

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let record (s : t) =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* The running span of the calling domain, 0 outside any span. *)
let current_id () = fst (Domain.DLS.get current)

(* [with_ name f] runs [f] inside a span.  [rid] starts a new request
   scope; nested spans inherit the enclosing request id.  [parent]
   names the causing span when it runs on another domain. *)
let with_ ?parent ?rid (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled) then f ()
  else begin
    let ((here, prid) as saved) = Domain.DLS.get current in
    let parent = Option.value parent ~default:here in
    let rid = Option.value rid ~default:prid in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set current (id, rid);
    let w0 = Heap.domain_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let words = Heap.domain_words () -. w0 in
      Domain.DLS.set current saved;
      record { id; name; parent; rid; start; stop; words }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span whose interval was measured by the caller (e.g. a pass time
   read from a pipeline trace), attached under the running span. *)
let add ~(name : string) ~(start : float) ~(stop : float) =
  if Atomic.get enabled then begin
    let parent, rid = Domain.DLS.get current in
    let id = Atomic.fetch_and_add next_id 1 in
    record { id; name; parent; rid; start; stop; words = 0.0 }
  end

let take () : t list =
  Mutex.lock lock;
  let l = List.rev !recorded in
  recorded := [];
  Mutex.unlock lock;
  l

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi (intervals : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: the span's duration minus the part its children cover. *)
let self_times (spans : t list) : (t * float) list =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type row = {
  layer : string;
  count : int;
  total_s : float;
  self_s : float;
  alloc_words : float;
}

(* Per-name totals, ordered by self time, largest first. *)
let table (spans : t list) : row list =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let r =
        match Hashtbl.find_opt h s.name with
        | Some r -> r
        | None ->
            { layer = s.name; count = 0; total_s = 0.0; self_s = 0.0; alloc_words = 0.0 }
      in
      Hashtbl.replace h s.name
        {
          r with
          count = r.count + 1;
          total_s = r.total_s +. (s.stop -. s.start);
          self_s = r.self_s +. self;
          alloc_words = r.alloc_words +. s.words;
        })
    (self_times spans);
  Hashtbl.fold (fun _ r acc -> r :: acc) h []
  |> List.sort (fun a b -> compare (b.self_s, b.layer) (a.self_s, a.layer))

let pp_table ppf (rows : row list) =
  Format.fprintf ppf "%-28s %8s %12s %12s %12s@." "span" "count" "total_ms"
    "self_ms" "alloc_MB";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %8d %12.3f %12.3f %12.3f@." r.layer r.count
        (r.total_s *. 1000.0) (r.self_s *. 1000.0) (Heap.mb_of_words r.alloc_words))
    rows

let write_json (path : string) (spans : t list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start\":%.6f,\"end\":%.6f,\"words\":%.0f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.rid s.start s.stop s.words)
        spans;
      output_string oc "]\n")

(* Total duration, allocation and count of the spans named [name]. *)
let total (spans : t list) (name : string) : float * float * int =
  List.fold_left
    (fun (t, w, n) s ->
      if s.name = name then (t +. (s.stop -. s.start), w +. s.words, n + 1) else (t, w, n))
    (0.0, 0.0, 0) spans
