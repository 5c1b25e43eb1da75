(* Little-endian limbs in base 2^26. Canonical form: no trailing zero limb,
   zero is the empty array. 26-bit limbs keep schoolbook products (52 bits
   plus carries) comfortably inside OCaml's 63-bit native ints. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0
let is_odd a = Array.length a > 0 && a.(0) land 1 = 1

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec go n acc = if n = 0 then acc else go (n lsr limb_bits) (n land limb_mask :: acc) in
  normalize (Array.of_list (List.rev (go n [])))

let to_int_opt a =
  let rec go i acc =
    if i < 0 then Some acc
    else if acc > (max_int - a.(i)) lsr limb_bits then None
    else go (i - 1) ((acc lsl limb_bits) lor a.(i))
  in
  if Array.length a * limb_bits > 62 then
    (* May still fit; do the careful fold. *)
    go (Array.length a - 1) 0
  else go (Array.length a - 1) 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1)

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + width a.(n - 1) 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      (* Propagate the final carry (it can exceed one limb). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) bits : t =
  if bits < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_off = bits / limb_bits and bit_off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_off + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_off in
      r.(i + limb_off) <- r.(i + limb_off) lor (v land limb_mask);
      r.(i + limb_off + 1) <- r.(i + limb_off + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

(* Schoolbook division, Knuth TAOCP vol. 2, 4.3.1, Algorithm D: one
   quotient limb per step, estimated from the top two limbs of the running
   remainder and the top limb of the divisor. Normalizing the divisor so its
   top limb has its high bit set makes the estimate at most 2 too large;
   the test against the second divisor limb leaves it at most 1 too large,
   and that rarely (probability about 2/2^26): the add-back step repairs
   it. Intermediate values stay below 2^53, inside native ints. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let base = 1 lsl limb_bits in
    let la = Array.length a and n = Array.length b in
    if n = 1 then begin
      (* Short division by one limb. *)
      let d = b.(0) in
      let q = Array.make la 0 in
      let r = ref 0 in
      for i = la - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, normalize [| !r |])
    end
    else begin
      (* D1: scale both operands so the divisor's top limb is >= base/2. *)
      let s = limb_bits - width b.(n - 1) 0 in
      let scale x len =
        let r = Array.make len 0 in
        let carry = ref 0 in
        for i = 0 to Array.length x - 1 do
          let v = (x.(i) lsl s) lor !carry in
          r.(i) <- v land limb_mask;
          carry := v lsr limb_bits
        done;
        if len > Array.length x then r.(Array.length x) <- !carry;
        r
      in
      let u = scale a (la + 1) and v = scale b n in
      let m = la - n in
      let q = Array.make (m + 1) 0 in
      let v1 = v.(n - 1) and v2 = v.(n - 2) in
      for j = m downto 0 do
        (* D3: estimate q from the top two limbs, then refine. *)
        let top = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
        let qhat = ref (top / v1) and rhat = ref (top mod v1) in
        while
          !rhat < base
          && (!qhat >= base
             || !qhat * v2 > (!rhat lsl limb_bits) lor u.(j + n - 2))
        do
          decr qhat;
          rhat := !rhat + v1
        done;
        (* D4: u[j..j+n] -= qhat * v. [borrow] is 0 or -1. *)
        let carry = ref 0 and borrow = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr limb_bits;
          let t = u.(i + j) - (p land limb_mask) + !borrow in
          u.(i + j) <- t land limb_mask;
          borrow := t asr limb_bits
        done;
        let t = u.(j + n) - !carry + !borrow in
        if t >= 0 then u.(j + n) <- t
        else begin
          (* D6: qhat was one too large; add the divisor back. *)
          decr qhat;
          let carry = ref 0 in
          for i = 0 to n - 1 do
            let sum = u.(i + j) + v.(i) + !carry in
            u.(i + j) <- sum land limb_mask;
            carry := sum lsr limb_bits
          done;
          u.(j + n) <- (t + !carry) land limb_mask
        end;
        q.(j) <- !qhat
      done;
      (* D8: the remainder is u[0..n-1] (u[n] is now 0), unscaled. *)
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        r.(i) <-
          ((u.(i) lsr s) lor (u.(i + 1) lsl (limb_bits - s))) land limb_mask
      done;
      (normalize q, normalize r)
    end
  end

let rem a b = snd (divmod a b)

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let b = ref (rem base modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      let bit = exp.(i / limb_bits) lsr (i mod limb_bits) land 1 in
      if bit = 1 then result := rem (mul !result !b) modulus;
      if i < nbits - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

(* Extended Euclid over naturals, tracking the sign of the Bezout
   coefficient for [a] explicitly. Returns x with a*x ≡ gcd (mod m). *)
let mod_inverse a ~modulus =
  if is_zero modulus then invalid_arg "Bignum.mod_inverse: zero modulus";
  let a = rem a modulus in
  if is_zero a then None
  else begin
    (* Invariants: r0 = a*s0 + m*t0 (signs tracked), r1 likewise. *)
    let rec go r0 s0 sign0 r1 s1 sign1 =
      if is_zero r1 then
        if equal r0 one then
          Some (if sign0 >= 0 then rem s0 modulus else sub modulus (rem s0 modulus))
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        (* s2 = s0 - q*s1 with signs. *)
        let qs1 = mul q s1 in
        let s2, sign2 =
          if sign0 = sign1 then
            if compare s0 qs1 >= 0 then (sub s0 qs1, sign0)
            else (sub qs1 s0, -sign0)
          else (add s0 qs1, sign0)
        in
        go r1 s1 sign1 r2 s2 sign2
      end
    in
    go modulus zero 1 a one 1
  end

let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to len - 1 do
    (* Byte i from the least significant end, at bit 8i. *)
    let byte = Char.code s.[len - 1 - i] and bit = 8 * i in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    r.(limb) <- r.(limb) lor ((byte lsl off) land limb_mask);
    if off > limb_bits - 8 then
      r.(limb + 1) <- r.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize r

let to_bytes_be a =
  let nbytes = (bit_length a + 7) / 8 in
  String.init nbytes (fun i ->
      let bit = (nbytes - 1 - i) * 8 in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let v = a.(limb) lsr off in
      let v =
        if off > limb_bits - 8 && limb + 1 < Array.length a then
          v lor (a.(limb + 1) lsl (limb_bits - off))
        else v
      in
      Char.chr (v land 0xff))

let to_bytes_be_padded a width =
  let s = to_bytes_be a in
  if String.length s > width then invalid_arg "Bignum.to_bytes_be_padded";
  String.make (width - String.length s) '\000' ^ s

let random_bits drbg bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let raw = Bytes.of_string (Drbg.generate drbg nbytes) in
    let excess = (nbytes * 8) - bits in
    Bytes.set_uint8 raw 0 (Bytes.get_uint8 raw 0 land (0xff lsr excess));
    of_bytes_be (Bytes.to_string raw)
  end

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113 ]

let is_probable_prime drbg ~rounds n =
  if compare n (of_int 2) < 0 then false
  else if
    List.exists (fun p -> equal n (of_int p)) small_primes
  then true
  else if not (is_odd n) then false
  else if
    List.exists (fun p -> is_zero (rem n (of_int p))) small_primes
  then false
  else begin
    (* n-1 = d * 2^s with d odd. *)
    let n1 = sub n one in
    let rec split d s =
      if is_odd d then (d, s)
      else split (fst (divmod d (of_int 2))) (s + 1)
    in
    let d, s = split n1 0 in
    let witness () =
      (* Base in [2, n-2]. *)
      let rec draw () =
        let a = random_bits drbg (bit_length n) in
        if compare a (of_int 2) >= 0 && compare a n1 < 0 then a else draw ()
      in
      draw ()
    in
    let round () =
      let a = witness () in
      let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
      if equal !x one || equal !x n1 then true
      else begin
        let ok = ref false in
        let r = ref 1 in
        while (not !ok) && !r < s do
          x := rem (mul !x !x) n;
          if equal !x n1 then ok := true;
          incr r
        done;
        !ok
      end
    in
    let rec loop i = i >= rounds || (round () && loop (i + 1)) in
    loop 0
  end

let generate_prime drbg ~bits =
  if bits < 4 then invalid_arg "Bignum.generate_prime: too few bits";
  let rec go () =
    let c = random_bits drbg bits in
    (* Force the top bit (exact width) and the bottom bit (odd). *)
    let top = shift_left one (bits - 1) in
    let c = if compare c top < 0 then add c top else c in
    let c = if is_odd c then c else add c one in
    if is_probable_prime drbg ~rounds:20 c then c else go ()
  in
  go ()

let to_hex a =
  if is_zero a then "0" else Sdds_util.Hex.encode (to_bytes_be a)

let of_hex s =
  let s = if String.length s land 1 = 1 then "0" ^ s else s in
  of_bytes_be (Sdds_util.Hex.decode s)

let pp ppf a = Format.pp_print_string ppf (to_hex a)
