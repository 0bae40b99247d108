exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Lower a multiple-control Toffoli with controls [cs] and target [t] to
   3-qubit Toffolis using a chain of clean ancillas: and-accumulate the
   controls pairwise, fire the final Toffoli, then uncompute the chain. The
   ancilla allocator returns fresh qubit indices past the declared register.
   With k controls this emits 2(k-2)+1 Toffolis and k-2 ancillas per gate
   (ancillas are reused across gates since they are returned clean). *)
let lower_mct ~fresh cs t =
  match cs with
  | [] -> [ Gate.Not t ]
  | [ c ] -> [ Gate.Cnot { control = c; target = t } ]
  | [ c1; c2 ] -> [ Gate.Toffoli { c1; c2; target = t } ]
  | c1 :: c2 :: rest ->
      (* Accumulate all controls but the last into an ancilla chain
         (k-2 ancillas for k controls), fire a Toffoli on the final carry and
         the last control, then uncompute so the ancillas end clean. *)
      let rec split_last = function
        | [ x ] -> ([], x)
        | x :: xs ->
            let init, last = split_last xs in
            (x :: init, last)
        | [] -> assert false
      in
      let body_controls, last_control = split_last (c1 :: c2 :: rest) in
      (match body_controls with
       | [ only ] -> [ Gate.Toffoli { c1 = only; c2 = last_control; target = t } ]
       | first :: second :: more ->
           let anc0 = fresh 0 in
           let rec chain idx acc carry = function
             | [] -> (List.rev acc, carry)
             | c :: cs ->
                 let anc = fresh idx in
                 let g = Gate.Toffoli { c1 = carry; c2 = c; target = anc } in
                 chain (idx + 1) (g :: acc) anc cs
           in
           let compute, carry =
             chain 1 [ Gate.Toffoli { c1 = first; c2 = second; target = anc0 } ] anc0 more
           in
           compute
           @ (Gate.Toffoli { c1 = carry; c2 = last_control; target = t }
              :: List.rev compute)
       | [] -> assert false)

let lower_fredkin ~fresh cs a b =
  match cs with
  | [] -> [ Gate.Cnot { control = b; target = a };
            Gate.Cnot { control = a; target = b };
            Gate.Cnot { control = b; target = a } ]
  | [ c ] -> [ Gate.Fredkin { control = c; a; b } ]
  | cs ->
      (* Multi-control Fredkin: CNOT(b,a); MCT(cs @ [a], b); CNOT(b,a). *)
      [ Gate.Cnot { control = b; target = a } ]
      @ lower_mct ~fresh (cs @ [ a ]) b
      @ [ Gate.Cnot { control = b; target = a } ]

let of_string ~name text =
  let lines = String.split_on_char '\n' text in
  let num_declared = ref 0 in
  let var_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let gates = ref [] in
  let extra_ancillas = ref 0 in
  let in_body = ref false in
  let ended = ref false in
  let lookup v =
    match Hashtbl.find_opt var_index v with
    | Some i -> i
    | None -> fail "unknown variable %S" v
  in
  let handle_line raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line = "" then ()
    else begin
      let tokens = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      match tokens with
      | [] -> ()
      | keyword :: rest ->
          let kw = String.lowercase_ascii keyword in
          if String.length kw > 0 && kw.[0] = '.' then begin
            match kw with
            | ".version" | ".constants" | ".garbage" | ".inputs" | ".outputs"
            | ".inputbus" | ".outputbus" | ".define" | ".module" ->
                ()
            | ".numvars" -> begin
                match rest with
                | [ n ] -> num_declared := int_of_string n
                | _ -> fail ".numvars expects one integer"
              end
            | ".variables" ->
                List.iteri (fun i v -> Hashtbl.replace var_index v i) rest
            | ".begin" -> in_body := true
            | ".end" -> ended := true
            | _ -> fail "unknown directive %s" kw
          end
          else if !ended then fail "gate line after .end"
          else if not !in_body then fail "gate line before .begin: %s" line
          else begin
            let kind = kw.[0] in
            let operands = List.map lookup rest in
            let fresh idx =
              extra_ancillas := Int.max !extra_ancillas (idx + 1);
              !num_declared + idx
            in
            match kind, operands with
            | 't', operands when operands <> [] ->
                let rec split_last = function
                  | [ x ] -> ([], x)
                  | x :: xs ->
                      let init, last = split_last xs in
                      (x :: init, last)
                  | [] -> assert false
                in
                let cs, t = split_last operands in
                gates := List.rev_append (lower_mct ~fresh cs t) !gates
            | 'f', operands when List.length operands >= 2 ->
                let rec split_last2 = function
                  | [ a; b ] -> ([], a, b)
                  | x :: xs ->
                      let cs, a, b = split_last2 xs in
                      (x :: cs, a, b)
                  | _ -> assert false
                in
                let cs, a, b = split_last2 operands in
                gates := List.rev_append (lower_fredkin ~fresh cs a b) !gates
            | _ -> fail "unsupported gate line: %s" line
          end
    end
  in
  List.iter handle_line lines;
  if !num_declared = 0 then fail "missing .numvars";
  let num_qubits = !num_declared + !extra_ancillas in
  Circuit.make ~name ~num_qubits (List.rev !gates)

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  of_string ~name text
