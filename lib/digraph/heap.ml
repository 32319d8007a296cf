type t = {
  keys : int array;           (* heap slot -> key *)
  prios : float array;        (* heap slot -> priority *)
  pos : int array;            (* key -> heap slot, or -1 when absent *)
  mutable len : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  {
    keys = Array.make (max capacity 1) (-1);
    prios = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    len = 0;
  }

let is_empty h = h.len = 0

let size h = h.len

let mem h k = k >= 0 && k < Array.length h.pos && h.pos.(k) >= 0

(* Hole-style sifting: carry the displaced entry in registers and write
   it once at its final slot, instead of a three-array swap per level.
   The comparison sequence — and therefore the resulting layout, and
   therefore tie-breaking everywhere downstream — is identical to the
   textbook swap formulation. [Dijkstra.Flat] inlines its own heap: its
   sift-up makes these comparisons, its pop is bottom-up and makes
   others, and both must keep producing the layout these loops produce;
   the "flat kernel = run_into" property in test_dijkstra.ml fails if
   they drift apart. *)
let sift_up h i =
  let k = h.keys.(i) and p = h.prios.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.prios.(parent) > p then begin
      h.keys.(!i) <- h.keys.(parent);
      h.prios.(!i) <- h.prios.(parent);
      h.pos.(h.keys.(!i)) <- !i;
      i := parent
    end
    else continue := false
  done;
  h.keys.(!i) <- k;
  h.prios.(!i) <- p;
  h.pos.(k) <- !i

let sift_down h i =
  let k = h.keys.(i) and p = h.prios.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    let sp = ref p in
    if l < h.len && h.prios.(l) < !sp then begin
      smallest := l;
      sp := h.prios.(l)
    end;
    if r < h.len && h.prios.(r) < !sp then smallest := r;
    if !smallest <> !i then begin
      h.keys.(!i) <- h.keys.(!smallest);
      h.prios.(!i) <- h.prios.(!smallest);
      h.pos.(h.keys.(!i)) <- !i;
      i := !smallest
    end
    else continue := false
  done;
  h.keys.(!i) <- k;
  h.prios.(!i) <- p;
  h.pos.(k) <- !i

let insert h k p =
  if k < 0 || k >= Array.length h.pos then invalid_arg "Heap.insert: key out of range";
  if h.pos.(k) >= 0 then invalid_arg "Heap.insert: key already present";
  let i = h.len in
  h.keys.(i) <- k;
  h.prios.(i) <- p;
  h.pos.(k) <- i;
  h.len <- h.len + 1;
  sift_up h i

let decrease h k p =
  if not (mem h k) then invalid_arg "Heap.decrease: key absent";
  let i = h.pos.(k) in
  if p > h.prios.(i) then invalid_arg "Heap.decrease: priority increase";
  h.prios.(i) <- p;
  sift_up h i

let insert_or_decrease h k p =
  if mem h k then begin
    if p < h.prios.(h.pos.(k)) then decrease h k p
  end
  else insert h k p

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let k = h.keys.(0) and p = h.prios.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    let last = h.len in
    h.keys.(0) <- h.keys.(last);
    h.prios.(0) <- h.prios.(last);
    h.pos.(h.keys.(0)) <- 0;
    sift_down h 0
  end;
  h.pos.(k) <- -1;
  (k, p)

let clear h =
  for i = 0 to h.len - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.len <- 0

let priority h k =
  if not (mem h k) then raise Not_found;
  h.prios.(h.pos.(k))
