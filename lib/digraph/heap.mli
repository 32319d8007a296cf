(** Indexed binary min-heap over integer keys with float priorities.

    Supports the decrease-key operation needed by Dijkstra's algorithm:
    every key in [0, capacity) may be present at most once. *)

type t

val create : int -> t
(** [create capacity] makes an empty heap accepting keys in
    [0, capacity). *)

val is_empty : t -> bool

val size : t -> int

val mem : t -> int -> bool
(** [mem h k] tells whether key [k] is currently in the heap. *)

val insert : t -> int -> float -> unit
(** [insert h k p] adds key [k] with priority [p]. Raises
    [Invalid_argument] if [k] is already present or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h k p] lowers the priority of present key [k] to [p].
    Raises [Invalid_argument] if [k] is absent or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** Insert the key, or lower its priority if the new one is smaller;
    a no-op when the key is present with a smaller or equal priority. *)

val pop_min : t -> int * float
(** Remove and return the (key, priority) pair with minimal priority.
    Raises [Invalid_argument] on an empty heap. *)

val clear : t -> unit
(** Remove every key in O(size), leaving the heap ready for reuse —
    cheaper than reallocating when the same heap serves many runs. *)

val priority : t -> int -> float
(** Current priority of a present key. Raises [Not_found] otherwise. *)
