(* The frozen host-speed reference kernel.

   Every timing the benchmark reports is divided by how long this
   kernel took at about the same moment (see calib.ml), so host drift
   cancels out.  That only works if the kernel never changes: its
   source digest is pinned in refkernel.digest and checked at start-up,
   and an edit makes every run fail instead of silently rescaling
   history.  It therefore uses no library code beyond arrays and
   integer arithmetic: it allocates, hashes and sorts, the three kinds
   of work the engine does. *)

let mix z =
  let z = (z lxor (z lsr 31)) * 0x3fb5d329728ea185 in
  let z = (z lxor (z lsr 27)) * 0x01dadef4bc2dd44d in
  z lxor (z lsr 33)

type cell = { key : int; mutable count : int; next : cell option }

(* Allocation + hashing: chained buckets of freshly allocated cells,
   spread over a working set larger than the caches close to the core,
   because the engine's slowdowns on a shared host come mostly from
   memory traffic. *)
let hash_phase n =
  let size = 1 lsl 17 in
  let buckets = Array.make size None in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let k = mix (i land ((1 lsl 18) - 1)) land max_int in
    let b = k land (size - 1) in
    let rec find = function
      | None -> None
      | Some c -> if c.key = k then Some c else find c.next
    in
    match find buckets.(b) with
    | Some c -> c.count <- c.count + 1
    | None ->
      buckets.(b) <- Some { key = k; count = 1; next = buckets.(b) };
      incr total
  done;
  !total

(* Sorting: bottom-up merge sort of pseudo-random keys. *)
let sort_phase n seed =
  let a = Array.init n (fun i -> mix (i + seed) land 0xffffff) in
  let b = Array.make n 0 in
  let src = ref a and dst = ref b in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src.(n / 2)

(* One kernel run; the result is returned so no phase can be optimized
   away. *)
let run () = hash_phase 30_000 + sort_phase 50_000 7
