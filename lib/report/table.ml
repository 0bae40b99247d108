type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then widths.(i) <- Int.max widths.(i) (String.length cell))
        row)
    rows;
  let aligns = Array.of_list aligns in
  let render_row row =
    List.mapi (fun i cell -> pad aligns.(i) widths.(i) cell) row
    |> String.concat "  "
  in
  let sep =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  let body = List.map render_row rows in
  String.concat "\n" ((render_row header :: sep :: body) @ [ "" ])

let print ?align ~header rows = print_string (render ?align ~header rows)

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  (if n < 0 then "-" else "") ^ Buffer.contents buf

let fmt_ratio r = Printf.sprintf "%.3f" r

let fmt_time t = Printf.sprintf "%.1f" t
