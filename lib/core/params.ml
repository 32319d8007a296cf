type partitioner = Flow | Fm | Annealing | Random

let partitioner_name = function
  | Flow -> "flow"
  | Fm -> "fm"
  | Annealing -> "annealing"
  | Random -> "random"

let partitioner_of_name = function
  | "flow" -> Some Flow
  | "fm" -> Some Fm
  | "annealing" -> Some Annealing
  | "random" -> Some Random
  | _ -> None

let partitioners = [ Flow; Fm; Annealing; Random ]

type t = {
  capacity : float;
  min_visit : int;
  alpha : float;
  delta : float;
  beta : int;
  l_k : int;
  seed : int64;
  max_iterations : int;
  partitioner : partitioner;
}

let paper =
  {
    capacity = 1.0;
    min_visit = 20;
    alpha = 4.0;
    delta = 0.01;
    beta = 50;
    l_k = 16;
    seed = 0x4DACL;
    max_iterations = 20_000;
    partitioner = Flow;
  }

(* The paper's [min_visit = 20] makes every primary input the source
   of 21 trees, half of a large circuit's flow time, for no cut or
   area gain over ten flow seeds (EXPERIMENTS "flow budget band"). *)
let default = { paper with min_visit = 2 }

let with_lk l_k = { default with l_k }

let validate p =
  if p.capacity <= 0.0 then Error "capacity must be positive"
  else if p.min_visit < 1 then Error "min_visit must be at least 1"
  else if p.delta <= 0.0 then Error "delta must be positive"
  else if p.beta < 1 then Error "beta must be at least 1 (Eq. 6)"
  else if p.l_k < 2 || p.l_k > 32 then Error "l_k must be in 2..32"
  else if p.max_iterations < 1 then Error "max_iterations must be positive"
  else Ok ()

(* Every field, in declaration order. Any knob that can change a compile
   result must land here: the serve cache keys results on circuit
   content + this string, so a missing field would alias distinct
   compiles onto one cache entry. *)
let fingerprint p =
  Printf.sprintf
    "b=%h;mv=%d;a=%h;d=%h;beta=%d;lk=%d;seed=%Ld;mi=%d;part=%s"
    p.capacity p.min_visit p.alpha p.delta p.beta p.l_k p.seed
    p.max_iterations (partitioner_name p.partitioner)

let pp ppf p =
  Format.fprintf ppf
    "b=%.2f min_visit=%d alpha=%.2f delta=%.3f beta=%d l_k=%d seed=%Ld"
    p.capacity p.min_visit p.alpha p.delta p.beta p.l_k p.seed
