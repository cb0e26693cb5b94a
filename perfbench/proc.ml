(* Peak resident set size from a /proc status file. *)

let vm_hwm_mb (status_file : string) : float =
  let ic = open_in status_file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ status_file)
  in
  scan ()

let self_peak_rss_mb () = vm_hwm_mb "/proc/self/status"
