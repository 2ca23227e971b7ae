(** Immutable sets of small nonnegative integers, represented as sorted
    arrays.

    Vertex sets appear in every automaton transition and are consulted on
    every candidate firing, so the representation favours cache-friendly
    iteration and cheap intersection tests over the pointer-chasing of the
    stdlib AVL sets. All operations are purely functional. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val of_list : int list -> t
val of_sorted_array_unchecked : int array -> t

val cardinal : t -> int

val nth : t -> int -> int
(** [nth s i] is the [i]-th smallest element, [0 <= i < cardinal s]. *)

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val disjoint : t -> t -> bool
val subset : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val elements : t -> int list
val choose : t -> int  (** smallest element; raises [Not_found] if empty *)

val min_elt : t -> int
val max_elt : t -> int
val pp : Format.formatter -> t -> unit
