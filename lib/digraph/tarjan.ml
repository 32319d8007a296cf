type result = {
  component : int array;
  count : int;
  members : int array array;
}

(* Iterative Tarjan over successor rows: the successors of [v] are
   [succ.(off.(v)) .. succ.(off.(v + 1) - 1)]. Explicit array frames of
   (vertex, row cursor) avoid stack overflow on the deep netlists of the
   large benchmarks. *)
let of_rows n off succ =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  let component = Array.make n (-1) in
  let count = ref 0 in
  let next = ref 0 in
  let frame_v = Array.make (max n 1) 0 in
  let frame_i = Array.make (max n 1) 0 in
  let fp = ref (-1) in
  let open_frame v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    incr fp;
    frame_v.(!fp) <- v;
    frame_i.(!fp) <- off.(v)
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      open_frame root;
      while !fp >= 0 do
        let v = frame_v.(!fp) in
        let i = frame_i.(!fp) in
        if i < off.(v + 1) then begin
          frame_i.(!fp) <- i + 1;
          let w = succ.(i) in
          if index.(w) < 0 then open_frame w
          else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w)
        end
        else begin
          (* v is fully explored: maybe close a component, then pop *)
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              component.(w) <- !count;
              if w = v then continue := false
            done;
            incr count
          end;
          decr fp;
          if !fp >= 0 then begin
            let p = frame_v.(!fp) in
            if low.(v) < low.(p) then low.(p) <- low.(v)
          end
        end
      done
    end
  done;
  let count = !count in
  let sizes = Array.make count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) component;
  let members = Array.init count (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make count 0 in
  for v = 0 to n - 1 do
    let c = component.(v) in
    members.(c).(fill.(c)) <- v;
    fill.(c) <- fill.(c) + 1
  done;
  { component; count; members }

let of_csr (csr : Csr.t) = of_rows csr.Csr.n csr.Csr.succ_off csr.Csr.succ

let run g =
  Netgraph.freeze g;
  let n = Netgraph.n_nodes g in
  let rows = Array.init n (Netgraph.successors g) in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length rows.(v)
  done;
  of_rows n off (Array.concat (Array.to_list rows))

let has_self_loop g v =
  Array.exists
    (fun e -> Array.exists (fun w -> w = v) (Netgraph.net_sinks g e))
    (Netgraph.out_nets g v)

let is_trivial r g c =
  match r.members.(c) with
  | [| v |] -> not (has_self_loop g v)
  | _ -> false

let nontrivial r g =
  let acc = ref [] in
  for c = r.count - 1 downto 0 do
    if not (is_trivial r g c) then acc := c :: !acc
  done;
  !acc

let net_internal r g e =
  let src = Netgraph.net_src g e in
  let c = r.component.(src) in
  if is_trivial r g c then None
  else if Array.exists (fun v -> r.component.(v) = c) (Netgraph.net_sinks g e)
  then Some c
  else None
