(* Readings from /proc: peak RSS and CPU time of a process. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* VmHWM of [pid] ("self" by default) in MiB *)
let peak_rss_mb ?(pid = "self") () =
  let s = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
  in
  float_of_int kb /. 1024.

(* user + system CPU seconds of [pid], from /proc/<pid>/stat (fields 14
   and 15, in clock ticks of 1/100 s, the Linux USER_HZ) *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* after "pid (comm) " the state is field 3, so utime/stime are at
     offsets 11 and 12 of [rest] *)
  float_of_string (f.(11)) /. 100. +. (float_of_string f.(12) /. 100.)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
