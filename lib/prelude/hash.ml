(* FIPS 180-4 SHA-256 and 64-bit FNV-1a, in plain OCaml.

   Cache keys hash canonical JSON encodings of pipeline artifacts, which on
   a warm cache hit is a noticeable share of the work, so the SHA-256 block
   function allocates nothing: its words live in native ints masked to 32
   bits (a load-time check rejects platforms whose ints are not wider), the
   round state is threaded through a tail-recursive call instead of boxed
   [int32] cells, and the schedule is an [int array] scratch. FNV-1a works
   on int64 so its results are identical on every word size. *)

module Sha256 = struct
  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
       0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
       0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
       0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
       0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
       0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
       0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
       0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
       0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
       0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
       0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  type t = {
    h : int array;         (* running digest, 8 words of 32 bits *)
    block : Bytes.t;       (* 64-byte input block being filled *)
    mutable used : int;    (* bytes of [block] in use *)
    mutable length : int;  (* total bytes absorbed *)
    w : int array;         (* 64-word message schedule scratch *)
  }

  let create () =
    { h =
        [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
           0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
      block = Bytes.create 64;
      used = 0;
      length = 0;
      w = Array.make 64 0 }

  let copy t =
    { h = Array.copy t.h;
      block = Bytes.copy t.block;
      used = t.used;
      length = t.length;
      w = Array.make 64 0 }

  let mask = 0xffffffff

  (* Words are held in native ints, which must be wider than 32 bits. *)
  let () = assert (Sys.int_size > 32)

  (* Rotate a 32-bit word (held in the low bits of an int) right by [n].
     The bits above 32 are garbage; every value stored back is masked. *)
  let rotr x n = (x lsr n) lor (x lsl (32 - n))

  (* The 64 compression rounds, the working variables a..h as arguments;
     the last round adds them into the digest. [i < 64], the length of
     both [k] and [t.w]. *)
  let rec rounds t i a b c d e f g h =
    if i = 64 then begin
      let hs = t.h in
      hs.(0) <- (hs.(0) + a) land mask;
      hs.(1) <- (hs.(1) + b) land mask;
      hs.(2) <- (hs.(2) + c) land mask;
      hs.(3) <- (hs.(3) + d) land mask;
      hs.(4) <- (hs.(4) + e) land mask;
      hs.(5) <- (hs.(5) + f) land mask;
      hs.(6) <- (hs.(6) + g) land mask;
      hs.(7) <- (hs.(7) + h) land mask
    end
    else begin
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = (e land f) lxor (lnot e land g) in
      let t1 = h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get t.w i in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = (a land b) lxor (a land c) lxor (b land c) in
      rounds t (i + 1) ((t1 + s0 + maj) land mask) a b c ((d + t1) land mask) e f g
    end

  let[@tqec.hot] process t =
    let w = t.w and block = t.block in
    for i = 0 to 15 do
      w.(i) <-
        (Bytes.get_uint16_be block (i * 4) lsl 16)
        lor Bytes.get_uint16_be block ((i * 4) + 2)
    done;
    for i = 16 to 63 do
      let x = w.(i - 15) and y = w.(i - 2) in
      let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3)
      and s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let hs = t.h in
    rounds t 0 hs.(0) hs.(1) hs.(2) hs.(3) hs.(4) hs.(5) hs.(6) hs.(7)

  let add_string t s =
    let len = String.length s in
    let pos = ref 0 in
    t.length <- t.length + len;
    while !pos < len do
      let take = Int.min (64 - t.used) (len - !pos) in
      Bytes.blit_string s !pos t.block t.used take;
      t.used <- t.used + take;
      pos := !pos + take;
      if t.used = 64 then begin
        process t;
        t.used <- 0
      end
    done

  let hex t =
    let t = copy t in
    let bit_len = Int64.of_int (t.length * 8) in
    (* Pad: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit count. *)
    Bytes.set t.block t.used '\x80';
    t.used <- t.used + 1;
    if t.used > 56 then begin
      Bytes.fill t.block t.used (64 - t.used) '\x00';
      process t;
      t.used <- 0
    end;
    Bytes.fill t.block t.used (56 - t.used) '\x00';
    Bytes.set_int64_be t.block 56 bit_len;
    process t;
    let buf = Buffer.create 64 in
    Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf "%08x" w)) t.h;
    Buffer.contents buf
end

let sha256_hex s =
  let t = Sha256.create () in
  Sha256.add_string t s;
  Sha256.hex t

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fnv1a64_hex s = Printf.sprintf "%016Lx" (fnv1a64 s)
