module Table = Tqec_report.Table
module Effort = Tqec_report.Effort
module Flow = Tqec_core.Flow

let test_render_alignment () =
  let s =
    Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "long-name"; "23" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (match lines with
   | header :: sep :: _ ->
       Alcotest.(check bool) "header mentions name" true
         (String.length header >= String.length "name  value");
       Alcotest.(check bool) "separator is dashes" true (String.contains sep '-')
   | _ -> Alcotest.fail "expected at least two lines");
  (* All data lines are equally wide (aligned columns). *)
  let widths =
    List.filter (fun l -> l <> "") lines |> List.map String.length
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check int) "uniform width" 1 (List.length widths)

let test_fmt_int () =
  Alcotest.(check string) "thousands" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "small" "42" (Table.fmt_int 42);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "zero" "0" (Table.fmt_int 0)

let test_fmt_ratio_time () =
  Alcotest.(check string) "ratio" "1.500" (Table.fmt_ratio 1.5);
  Alcotest.(check string) "time" "2.3" (Table.fmt_time 2.345)

let test_effort_budgets_monotone () =
  let opts g lvl = Effort.options_for ~level:lvl ~gates:g in
  let sa o = o.Flow.place.Tqec_place.Place25d.sa.Tqec_place.Sa.iterations in
  Alcotest.(check bool) "full >= normal" true
    (sa (opts 200 Effort.Full) >= sa (opts 200 Effort.Normal));
  Alcotest.(check bool) "normal >= fast" true
    (sa (opts 200 Effort.Normal) >= sa (opts 200 Effort.Fast));
  Alcotest.(check bool) "small problems get more iterations" true
    (sa (opts 200 Effort.Normal) >= sa (opts 5000 Effort.Normal))

let test_ascii_layout () =
  let circuit =
    Tqec_circuit.Circuit.make ~name:"viz" ~num_qubits:2
      [ Tqec_circuit.Gate.Cnot { control = 0; target = 1 } ]
  in
  let options = Flow.scale_options ~sa_iterations:500 Flow.default_options in
  let flow = Flow.run ~options circuit in
  let art = Tqec_report.Ascii_layout.render ~max_slices:2 flow in
  Alcotest.(check bool) "non-empty" true (String.length art > 0);
  Alcotest.(check bool) "labels slices" true (String.contains art 'z');
  Alcotest.(check bool) "draws wire modules" true (String.contains art '#')

let suites =
  [ ( "report",
      [ Alcotest.test_case "table alignment" `Quick test_render_alignment;
        Alcotest.test_case "fmt_int" `Quick test_fmt_int;
        Alcotest.test_case "fmt ratio/time" `Quick test_fmt_ratio_time;
        Alcotest.test_case "effort budgets" `Quick test_effort_budgets_monotone;
        Alcotest.test_case "ascii layout" `Quick test_ascii_layout ] ) ]

let test_geometry_export () =
  let circuit =
    Tqec_circuit.Circuit.make ~name:"export\"demo" ~num_qubits:2
      [ Tqec_circuit.Gate.Cnot { control = 0; target = 1 } ]
  in
  let options = Flow.scale_options ~sa_iterations:500 Flow.default_options in
  let flow = Flow.run ~options circuit in
  let json = Tqec_report.Geometry_export.to_json flow in
  Alcotest.(check bool) "contains modules key" true
    (String.length json > 0 &&
     (let re = "\"modules\"" in
      let rec find i =
        if i + String.length re > String.length json then false
        else if String.sub json i (String.length re) = re then true
        else find (i + 1)
      in
      find 0));
  (* The quote in the circuit name must be escaped. *)
  let rec find_sub sub i =
    if i + String.length sub > String.length json then false
    else if String.sub json i (String.length sub) = sub then true
    else find_sub sub (i + 1)
  in
  Alcotest.(check bool) "name escaped" true (find_sub "export\\\"demo" 0);
  (* Write/read round trip. *)
  let path = Filename.temp_file "tqec" ".json" in
  Tqec_report.Geometry_export.write_file path flow;
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file round trip" json content

let export_suites =
  [ ( "report.export",
      [ Alcotest.test_case "geometry export" `Quick test_geometry_export ] ) ]

let suites = suites @ export_suites
