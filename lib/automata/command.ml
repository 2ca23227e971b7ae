open Preo_support

type expr =
  | Read_port of Vertex.t
  | Read_cell of int
  | Lit of Value.t
  | Apply of string * expr

type guard =
  | G_pred of { g_pred : string; g_positive : bool; g_arg : expr }
  | G_eq of expr * expr
type move = To_sink of Vertex.t * expr | To_cell of int * expr
type t = { guards : guard array; moves : move array }

type env = {
  read_send : Vertex.t -> Value.t;
  read_cell : int -> Value.t;
  write_cell : int -> Value.t -> unit;
  deliver : Vertex.t -> Value.t -> unit;
}

(* --- Solving ----------------------------------------------------------- *)

(* Base terms are the union-find keys; [App] terms become directed
   definitions "class := f(term)" since data functions cannot be inverted. *)

type base = B_port of Vertex.t | B_pre of int | B_post of int | B_const of Value.t

let strip = function
  | Constr.Port v -> `Base (B_port v)
  | Constr.Pre c -> `Base (B_pre c)
  | Constr.Post c -> `Base (B_post c)
  | Constr.Const v -> `Base (B_const v)
  | Constr.App (f, t) -> `App (f, t)

let solve ~readable ~writable (constr : Constr.t) : (t, string) result =
  let exception Unsolvable of string in
  try
    (* 1. Index every base term occurring anywhere in the constraint. *)
    let index : (base, int) Hashtbl.t = Hashtbl.create 16 in
    let terms = ref [] in
    let ncount = ref 0 in
    let intern b =
      match Hashtbl.find_opt index b with
      | Some i -> i
      | None ->
        let i = !ncount in
        incr ncount;
        Hashtbl.add index b i;
        terms := b :: !terms;
        i
    in
    let rec collect (t : Constr.term) =
      match strip t with
      | `Base b -> ignore (intern b)
      | `App (_, u) -> collect u
    in
    List.iter
      (function
        | Constr.Eq (a, b) -> collect a; collect b
        | Constr.Pred (_, _, x) -> collect x)
      constr;
    let n = !ncount in
    let uf = Union_find.create (max n 1) in
    (* 2. Union base-base equations; record app definitions. *)
    let defs : (int * string * Constr.term) list ref = ref [] in
    List.iter
      (function
        | Constr.Eq (a, b) -> begin
          match (strip a, strip b) with
          | `Base x, `Base y -> Union_find.union uf (intern x) (intern y)
          | `Base x, `App (f, u) | `App (f, u), `Base x ->
            (* store the raw index: the class representative may change as
               later equations union more terms in *)
            defs := (intern x, f, u) :: !defs
          | `App _, `App _ ->
            raise (Unsolvable "equation between two function applications")
        end
        | Constr.Pred _ -> ())
      constr;
    (* 3. Resolve each class to a source expression. *)
    let base_of = Array.make (max n 1) (B_const Value.Unit) in
    List.iteri (fun i b -> base_of.(!ncount - 1 - i) <- b) !terms;
    let resolved : (int, expr) Hashtbl.t = Hashtbl.create 8 in
    let in_progress : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let members = Array.make (max n 1) [] in
    for i = n - 1 downto 0 do
      let r = Union_find.find uf i in
      members.(r) <- base_of.(i) :: members.(r)
    done;
    let rec resolve_class r =
      match Hashtbl.find_opt resolved r with
      | Some e -> Some e
      | None ->
        if Hashtbl.mem in_progress r then None
        else begin
          Hashtbl.add in_progress r ();
          let direct =
            (* Prefer constants, then readable ports, then cell reads. *)
            let rec pick best = function
              | [] -> best
              | B_const v :: rest -> begin
                match best with
                | Some (Lit v') when not (Value.equal v v') ->
                  raise (Unsolvable "conflicting constants in one class")
                | _ -> pick (Some (Lit v)) rest
              end
              | B_port v :: rest when Iset.mem v readable -> begin
                match best with
                | Some (Lit _) -> pick best rest
                | _ -> pick (Some (Read_port v)) rest
              end
              | B_pre c :: rest -> begin
                match best with
                | Some (Lit _) | Some (Read_port _) -> pick best rest
                | _ -> pick (Some (Read_cell c)) rest
              end
              | (B_port _ | B_post _) :: rest -> pick best rest
            in
            pick None members.(r)
          in
          let result =
            match direct with
            | Some e -> Some e
            | None ->
              (* Fall back to a function definition targeting this class. *)
              let rec try_defs = function
                | [] -> None
                | (x, f, arg) :: rest when Union_find.find uf x = r -> begin
                  match resolve_term arg with
                  | Some e -> Some (Apply (f, e))
                  | None -> try_defs rest
                end
                | _ :: rest -> try_defs rest
              in
              try_defs !defs
          in
          Hashtbl.remove in_progress r;
          (match result with Some e -> Hashtbl.replace resolved r e | None -> ());
          result
        end
    and resolve_term (t : Constr.term) =
      match strip t with
      | `Base b -> resolve_class (Union_find.find uf (intern b))
      | `App (f, u) -> begin
        match resolve_term u with
        | Some e -> Some (Apply (f, e))
        | None -> None
      end
    in
    (* 4. Emit moves for all writable targets. *)
    let moves = ref [] in
    for r = 0 to n - 1 do
      if Union_find.find uf r = r then begin
        let sinks =
          List.filter_map
            (function
              | B_port v when Iset.mem v writable -> Some (`Sink v)
              | B_post c -> Some (`Cell c)
              | B_port _ | B_pre _ | B_const _ -> None)
            members.(r)
        in
        if sinks <> [] then begin
          match resolve_class r with
          | None ->
            raise
              (Unsolvable
                 "under-determined constraint: a sink or cell write has no \
                  data source")
          | Some e ->
            List.iter
              (fun s ->
                moves :=
                  (match s with
                   | `Sink v -> To_sink (v, e)
                   | `Cell c -> To_cell (c, e))
                  :: !moves)
              sinks
        end
      end
    done;
    (* 5. Predicate guards. *)
    let guards =
      List.filter_map
        (function
          | Constr.Pred (p, pos, arg) -> begin
            match resolve_term arg with
            | Some e -> Some (G_pred { g_pred = p; g_positive = pos; g_arg = e })
            | None ->
              raise (Unsolvable "predicate argument has no data source")
          end
          | Constr.Eq _ -> None)
        constr
    in
    (* 6. Classes with several independent sources: conflicting constants
       are statically unsatisfiable; other combinations become runtime
       equality guards. *)
    let eq_guards = ref [] in
    for r = 0 to n - 1 do
      if Union_find.find uf r = r then begin
        let consts = ref [] and others = ref [] in
        List.iter
          (fun b ->
            match b with
            | B_const v ->
              if not (List.exists (Value.equal v) !consts) then
                consts := v :: !consts
            | B_port p when Iset.mem p readable ->
              others := Read_port p :: !others
            | B_pre c -> others := Read_cell c :: !others
            | B_port _ | B_post _ -> ())
          members.(r);
        (match !consts with
         | _ :: _ :: _ -> raise (Unsolvable "conflicting constants in one class")
         | _ -> ());
        let sources =
          List.map (fun v -> Lit v) !consts @ List.rev !others
        in
        match sources with
        | [] | [ _ ] -> ()
        | rep :: rest ->
          List.iter (fun e -> eq_guards := G_eq (rep, e) :: !eq_guards) rest
      end
    done;
    Ok
      {
        guards = Array.of_list (guards @ List.rev !eq_guards);
        moves = Array.of_list (List.rev !moves);
      }
  with
  | Unsolvable msg -> Error msg
  | Failure msg -> Error msg

(* --- Evaluation -------------------------------------------------------- *)

let rec eval env = function
  | Read_port v -> env.read_send v
  | Read_cell c -> env.read_cell c
  | Lit v -> v
  | Apply (f, e) -> (Datafun.find_fn f) (eval env e)

let guards_hold t env =
  Array.for_all
    (fun g ->
      match g with
      | G_pred { g_pred; g_positive; g_arg } ->
        (Datafun.find_pred g_pred) (eval env g_arg) = g_positive
      | G_eq (a, b) -> Value.equal (eval env a) (eval env b))
    t.guards

let execute t env =
  (* Read all sources before performing any write, so a cell can be both
     consumed and refilled within one step. *)
  let staged =
    Array.map
      (fun m ->
        match m with
        | To_sink (v, e) -> `Sink (v, eval env e)
        | To_cell (c, e) -> `Cell (c, eval env e))
      t.moves
  in
  Array.iter
    (function
      | `Sink (v, value) -> env.deliver v value
      | `Cell (c, value) -> env.write_cell c value)
    staged

(* --- Compilation -------------------------------------------------------- *)

(* A command lowered into closed OCaml closures: every [Datafun] name is
   looked up once here (not per evaluation, through a mutex), constant
   guards are folded away, and the guard check + move execution fuse into a
   single [fire] call. The closures only touch the world through the same
   [env] the interpreter uses, so a compiled command is observationally
   identical to [guards_hold]+[execute] — certified by the differential
   suite over the whole catalog.

   Semantics of folding: data functions and predicates are pure functions of
   their argument (the Reo contract; all stock ones are), so a predicate
   applied to a literal can be decided at compile time. A name that is not
   registered at compile time makes the command "exotic": {!compile} returns
   [None] and the interpreter keeps late-binding it per evaluation. *)

type compiled = {
  k_nguards : int;  (** residual (unfolded) guards *)
  k_fire : env -> bool;
      (** check the residual guards; when they hold, execute the moves
          (through [env], so writes stage wherever the caller stages them)
          and return [true]. A statically false guard yields a [fire] that
          is constantly [false]. *)
}

let compiled_nguards k = k.k_nguards

exception Not_compilable

let rec lower_expr : expr -> env -> Value.t = function
  | Read_port v -> fun env -> env.read_send v
  | Read_cell c -> fun env -> env.read_cell c
  | Lit v -> fun _ -> v
  | Apply (f, e) -> (
    let g = lower_expr e in
    match Datafun.lookup_fn f with
    | Some fn -> fun env -> fn (g env)
    | None -> raise Not_compilable)

type lowered_guard = L_true | L_false | L_test of (env -> bool)

let lower_guard = function
  | G_eq (Lit a, Lit b) -> if Value.equal a b then L_true else L_false
  | G_eq (a, b) ->
    let ea = lower_expr a and eb = lower_expr b in
    L_test (fun env -> Value.equal (ea env) (eb env))
  | G_pred { g_pred; g_positive; g_arg } -> (
    match Datafun.lookup_pred g_pred with
    | None -> raise Not_compilable
    | Some p -> (
      match g_arg with
      | Lit v -> if p v = g_positive then L_true else L_false
      | _ ->
        let a = lower_expr g_arg in
        if g_positive then L_test (fun env -> p (a env))
        else L_test (fun env -> not (p (a env)))))

let lower_move = function
  | To_sink (v, e) ->
    let g = lower_expr e in
    fun env -> env.deliver v (g env)
  | To_cell (c, e) ->
    let g = lower_expr e in
    fun env -> env.write_cell c (g env)

let compile (t : t) : compiled option =
  match
    let static_false = ref false in
    let tests =
      Array.to_list t.guards
      |> List.filter_map (fun g ->
             match lower_guard g with
             | L_true -> None
             | L_false ->
               static_false := true;
               None
             | L_test f -> Some f)
      |> Array.of_list
    in
    if !static_false then
      (* Constant-folded to never-enabled; keep the original guard count so
         nobody mistakes it for guard-free. *)
      { k_nguards = max 1 (Array.length t.guards); k_fire = (fun _ -> false) }
    else begin
      let exec =
        match t.moves with
        | [||] -> fun _ -> ()
        | [| m |] ->
          (* One move: its own read happens before its own write, so the
             read-before-write contract holds with no staging. *)
          lower_move m
        | moves ->
          (* Several moves: preserve [execute]'s contract (all sources read
             before any write) by staging the values first. *)
          let writes =
            Array.map
              (function
                | To_sink (v, e) ->
                  (lower_expr e, fun env value -> env.deliver v value)
                | To_cell (c, e) ->
                  (lower_expr e, fun env value -> env.write_cell c value))
              moves
          in
          fun env ->
            let staged = Array.map (fun (g, _) -> g env) writes in
            Array.iteri (fun i (_, w) -> w env staged.(i)) writes
      in
      let k_fire =
        match Array.length tests with
        | 0 ->
          fun env ->
            exec env;
            true
        | 1 ->
          let g = tests.(0) in
          fun env ->
            if g env then begin
              exec env;
              true
            end
            else false
        | _ ->
          fun env ->
            Array.for_all (fun g -> g env) tests
            && begin
                 exec env;
                 true
               end
      in
      { k_nguards = Array.length tests; k_fire }
    end
  with
  | k -> Some k
  | exception Not_compilable -> None

let fire_compiled k env = k.k_fire env

(* --- Renaming ---------------------------------------------------------- *)

let rec map_expr_vertices f = function
  | Read_port v -> Read_port (f v)
  | (Read_cell _ | Lit _) as e -> e
  | Apply (name, e) -> Apply (name, map_expr_vertices f e)

let rec map_expr_cells f = function
  | Read_cell c -> Read_cell (f c)
  | (Read_port _ | Lit _) as e -> e
  | Apply (name, e) -> Apply (name, map_expr_cells f e)

let map_with fe fv fc t =
  {
    guards =
      Array.map
        (fun g ->
          match g with
          | G_pred p -> G_pred { p with g_arg = fe p.g_arg }
          | G_eq (a, b) -> G_eq (fe a, fe b))
        t.guards;
    moves =
      Array.map
        (function
          | To_sink (v, e) -> To_sink (fv v, fe e)
          | To_cell (c, e) -> To_cell (fc c, fe e))
        t.moves;
  }

let map_vertices f t = map_with (map_expr_vertices f) f Fun.id t
let map_cells f t = map_with (map_expr_cells f) Fun.id f t

(* --- Printing ---------------------------------------------------------- *)

let rec pp_expr ppf = function
  | Read_port v -> Vertex.pp ppf v
  | Read_cell c -> Format.fprintf ppf "cell(%d)" c
  | Lit v -> Value.pp ppf v
  | Apply (f, e) -> Format.fprintf ppf "%s(%a)" f pp_expr e

let pp ppf t =
  let pp_guard ppf g =
    match g with
    | G_pred { g_pred; g_positive; g_arg } ->
      Format.fprintf ppf "%s%s(%a)"
        (if g_positive then "" else "!")
        g_pred pp_expr g_arg
    | G_eq (a, b) -> Format.fprintf ppf "%a == %a" pp_expr a pp_expr b
  in
  let pp_move ppf = function
    | To_sink (v, e) -> Format.fprintf ppf "%a := %a" Vertex.pp v pp_expr e
    | To_cell (c, e) -> Format.fprintf ppf "cell(%d) := %a" c pp_expr e
  in
  Format.fprintf ppf "[%a | %a]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_guard)
    (Array.to_seq t.guards)
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_move)
    (Array.to_seq t.moves)
