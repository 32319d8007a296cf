(* The 64-bit state lives in 8 bytes rather than a [mutable int64]
   field: a mutable int64 field is a pointer to a boxed value, so every
   update allocated, and Assign_CBIT draws hundreds of candidates per
   greedy step. Reading and writing the bytes keeps the arithmetic
   unboxed. *)
type t = Bytes.t

let create seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 seed;
  g

let copy = Bytes.copy

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Advance the state and return it; [mix] is
   the output function. Both are inlined at every draw so the int64
   intermediates never leave registers. *)
let[@inline] advance g =
  let z = Int64.add (Bytes.get_int64_le g 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le g 0 z;
  z

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 g = mix (advance g)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = 0x3FFFFFFFFFFFFFFFL in
  let v = Int64.to_int (Int64.logand (mix (advance g)) mask) in
  v mod bound

let float g bound =
  (* 53 high bits give a uniform float in [0,1). *)
  let v = Int64.shift_right_logical (mix (advance g)) 11 in
  Int64.to_float v /. 9007199254740992.0 *. bound

let bool g = Int64.logand (mix (advance g)) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))
