(* Memory readings: OCaml heap allocation and the process's peak RSS. *)

(* Words allocated so far by every domain, live or joined, read from
   [Gc.quick_stat]; [Gc.minor_words] and [Gc.counters] count the calling
   domain alone.  The tests pin both behaviours on the installed
   runtime. *)
let allocated_words () : float =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words the calling domain allocated so far (span attribution). *)
let domain_words () : float =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let bytes_per_word = float_of_int (Sys.word_size / 8)
let mb_of_words (w : float) : float = w *. bytes_per_word /. 1e6

(* High-water resident set size in MB (10^6 bytes), from the kernel's
   [VmHWM] line for this process. *)
let peak_rss_mb () : float option =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
                match
                  String.split_on_char ' ' (String.trim v)
                  |> List.filter (( <> ) "")
                with
                | kb :: _ -> Option.map (fun k -> float_of_int k *. 1024.0 /. 1e6)
                               (int_of_string_opt kb)
                | [] -> None)
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
