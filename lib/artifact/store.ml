module Json = Tqec_obs.Json

type t =
  | Memory of (string, Json.t) Hashtbl.t
  | Disk of string

let slot ~stage ~key = stage ^ "/" ^ key

let create ?dir () =
  match dir with
  | None -> Memory (Hashtbl.create 64)
  | Some dir -> Disk dir

let dir = function Memory _ -> None | Disk dir -> Some dir

let entries = function Memory mem -> Hashtbl.length mem | Disk _ -> 0

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ -> if not (Sys.file_exists path) then raise Not_found
  end

let entry_path dir ~stage ~key = Filename.concat (Filename.concat dir stage) (key ^ ".json")

let read_file path =
  match open_in_bin path with
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | s ->
          close_in ic;
          Some s
      | exception (Sys_error _ | End_of_file) ->
          close_in_noerr ic;
          None)
  | exception Sys_error _ -> None

let find t ~stage ~key =
  match t with
  | Memory mem -> Hashtbl.find_opt mem (slot ~stage ~key)
  | Disk dir -> (
      match read_file (entry_path dir ~stage ~key) with
      | None -> None
      | Some bytes -> Result.to_option (Json.of_string bytes))

(* The channel is closed on every path, and a failed write removes its
   temp file, so a full disk neither leaks a descriptor per store nor
   leaves a [.tmp] behind. *)
let write_atomic dir ~stage ~key bytes =
  let stage_dir = Filename.concat dir stage in
  mkdir_p stage_dir;
  let final = entry_path dir ~stage ~key in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    output_string oc bytes;
    close_out oc;
    Sys.rename tmp final
  with
  | () -> ()
  | exception (Sys_error _ as e) ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let store t ~stage ~key json =
  match t with
  | Memory mem -> Hashtbl.replace mem (slot ~stage ~key) json
  | Disk dir -> (
      try write_atomic dir ~stage ~key (Json.to_string json)
      with Sys_error _ | Not_found -> ())

let remove t ~stage ~key =
  match t with
  | Memory mem -> Hashtbl.remove mem (slot ~stage ~key)
  | Disk dir -> ( try Sys.remove (entry_path dir ~stage ~key) with Sys_error _ -> ())
