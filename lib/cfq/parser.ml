open Cfq_itembase
open Cfq_constr

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | IDENT of string
  | NUMBER of float
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | DOT
  | COMMA
  | AMP
  | BAR
  | CMP of Cmp.t

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let lex text =
  let n = String.length text in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (push LPAREN; incr i)
    else if c = ')' then (push RPAREN; incr i)
    else if c = '{' then (push LBRACE; incr i)
    else if c = '}' then (push RBRACE; incr i)
    else if c = '.' && not (!i + 1 < n && is_digit text.[!i + 1]) then (push DOT; incr i)
    else if c = ',' then (push COMMA; incr i)
    else if c = '&' then (push AMP; incr i)
    else if c = '|' then (push BAR; incr i)
    else if c = '<' || c = '>' || c = '=' || c = '!' then begin
      let two = if !i + 1 < n then String.sub text !i 2 else "" in
      match Cmp.of_string two with
      | Some op ->
          push (CMP op);
          i := !i + 2
      | None -> (
          match Cmp.of_string (String.make 1 c) with
          | Some op ->
              push (CMP op);
              incr i
          | None -> fail "unexpected character %C" c)
    end
    else if is_digit c || c = '-' || (c = '.' && !i + 1 < n && is_digit text.[!i + 1])
    then begin
      let start = !i in
      if text.[!i] = '-' then incr i;
      while !i < n && (is_digit text.[!i] || text.[!i] = '.') do
        incr i
      done;
      let s = String.sub text start (!i - start) in
      match float_of_string_opt s with
      | Some f -> push (NUMBER f)
      | None -> fail "bad number %S" s
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      push (IDENT (String.sub text start (!i - start)))
    end
    else fail "unexpected character %C" c
  done;
  Array.of_list (List.rev !tokens)

(* ------------------------------------------------------------------ *)
(* Parser state *)

type state = {
  toks : token array;
  mutable pos : int;
}

let peek st = if st.pos < Array.length st.toks then Some st.toks.(st.pos) else None
let advance st = st.pos <- st.pos + 1

let expect st tok what =
  match peek st with
  | Some t when t = tok -> advance st
  | _ -> fail "expected %s" what

let ident st =
  match peek st with
  | Some (IDENT s) ->
      advance st;
      s
  | _ -> fail "expected identifier"

let number st =
  match peek st with
  | Some (NUMBER f) ->
      advance st;
      f
  | _ -> fail "expected number"

let cmp st =
  match peek st with
  | Some (CMP op) ->
      advance st;
      op
  | _ -> fail "expected comparison operator"

type var = S | T

let var_of_string = function
  | "S" | "s" -> Some S
  | "T" | "t" -> Some T
  | _ -> None

let attr name = Attr.make name Attr.Numeric

(* parsed atoms accumulate here *)
type acc = {
  mutable s_minsup : float;
  mutable t_minsup : float;
  mutable s_cs : One_var.t list;
  mutable t_cs : One_var.t list;
  mutable two : Two_var.t list;
}

let add_one acc v c =
  match v with
  | S -> acc.s_cs <- c :: acc.s_cs
  | T -> acc.t_cs <- c :: acc.t_cs

let add_two acc v c =
  (* normalise to S on the left *)
  acc.two <- (match v with S -> c | T -> Two_var.swap c) :: acc.two

let setop_of_keyword = function
  | "subset" -> Some Two_var.Subset
  | "superset" -> Some Two_var.Superset
  | "not_subset" -> Some Two_var.Not_subset
  | "not_superset" -> Some Two_var.Not_superset
  | "disjoint" -> Some Two_var.Disjoint
  | "intersects" -> Some Two_var.Intersect
  | _ -> None

let setop_of_cmp = function
  | Cmp.Eq -> Some Two_var.Set_eq
  | Cmp.Ne -> Some Two_var.Set_ne
  | Cmp.Le | Cmp.Lt | Cmp.Ge | Cmp.Gt -> None

let one_var_of_setop a op vs =
  match op with
  | Two_var.Subset -> One_var.Dom_subset (a, vs)
  | Two_var.Superset -> One_var.Dom_superset (a, vs)
  | Two_var.Disjoint -> One_var.Dom_disjoint (a, vs)
  | Two_var.Intersect -> One_var.Dom_intersect (a, vs)
  | Two_var.Set_eq -> One_var.Dom_subset (a, vs)  (* = handled by caller as ⊆ ∧ ⊇ *)
  | Two_var.Not_subset | Two_var.Not_superset | Two_var.Set_ne ->
      fail "negated set comparison with a constant set is not supported"

let value_set st =
  expect st LBRACE "'{'";
  let rec loop acc =
    let v = number st in
    match peek st with
    | Some COMMA ->
        advance st;
        loop (v :: acc)
    | Some RBRACE ->
        advance st;
        v :: acc
    | _ -> fail "expected ',' or '}' in value set"
  in
  Value_set.of_list (loop [])

(* [V.A] already consumed up to the variable; parse ".Attr" *)
let dotted_attr st =
  expect st DOT "'.'";
  attr (ident st)

(* agg '(' V '.' A ')' *)
let agg_operand st agg_name =
  match Agg.of_string agg_name with
  | None -> fail "unknown aggregate %S" agg_name
  | Some agg ->
      expect st LPAREN "'('";
      let v =
        match var_of_string (ident st) with
        | Some v -> v
        | None -> fail "expected S or T inside %s(...)" agg_name
      in
      let a = dotted_attr st in
      expect st RPAREN "')'";
      (agg, v, a)

let freq_atom st acc =
  expect st LPAREN "'('";
  let v =
    match var_of_string (ident st) with
    | Some v -> v
    | None -> fail "expected S or T inside freq(...)"
  in
  expect st RPAREN "')'";
  match peek st with
  | Some (CMP (Cmp.Ge | Cmp.Gt)) ->
      advance st;
      let f = number st in
      if not (f >= 0. && f <= 1.) then
        fail "support threshold %g outside [0, 1]" f;
      (match v with S -> acc.s_minsup <- f | T -> acc.t_minsup <- f)
  | _ -> ()

let card_atom st acc =
  (* '|' V '|' cmp n *)
  let v =
    match var_of_string (ident st) with
    | Some v -> v
    | None -> fail "expected S or T inside |...|"
  in
  expect st BAR "'|'";
  let op = cmp st in
  let n = number st in
  add_one acc v (One_var.Card_cmp (op, int_of_float n))

let agg_atom st acc agg_name =
  let agg1, v1, a1 = agg_operand st agg_name in
  let op = cmp st in
  match peek st with
  | Some (NUMBER _) -> add_one acc v1 (One_var.Agg_cmp (agg1, a1, op, number st))
  | Some (IDENT agg2_name) when Agg.of_string agg2_name <> None ->
      advance st;
      let agg2, v2, a2 = agg_operand st agg2_name in
      if v1 = v2 then fail "aggregate comparison with twice the same variable"
      else add_two acc v1 (Two_var.Agg2 (agg1, a1, op, agg2, a2))
  | _ -> fail "expected number or aggregate after comparison"

let dom_atom st acc v1 =
  let a1 = dotted_attr st in
  let continue_with_setop op =
    match peek st with
    | Some LBRACE ->
        (* constant value set *)
        let vs = value_set st in
        if op = Two_var.Set_eq then begin
          add_one acc v1 (One_var.Dom_subset (a1, vs));
          add_one acc v1 (One_var.Dom_superset (a1, vs))
        end
        else add_one acc v1 (one_var_of_setop a1 op vs)
    | Some (IDENT name) when var_of_string name <> None -> (
        advance st;
        match var_of_string name with
        | Some v2 when v2 <> v1 ->
            let a2 = dotted_attr st in
            add_two acc v1 (Two_var.Set2 (a1, op, a2))
        | Some _ -> fail "set comparison with twice the same variable"
        | None -> assert false)
    | _ -> fail "expected '{' or variable after set operator"
  in
  match peek st with
  | Some (IDENT kw) when setop_of_keyword kw <> None ->
      advance st;
      continue_with_setop (Option.get (setop_of_keyword kw))
  | Some (CMP op) -> (
      advance st;
      match peek st with
      | Some (NUMBER _) -> (
          let c = number st in
          (* domain shorthand *)
          match op with
          | Cmp.Ge | Cmp.Gt -> add_one acc v1 (One_var.Agg_cmp (Agg.Min, a1, op, c))
          | Cmp.Le | Cmp.Lt -> add_one acc v1 (One_var.Agg_cmp (Agg.Max, a1, op, c))
          | Cmp.Eq ->
              let vs = Value_set.singleton c in
              add_one acc v1 (One_var.Dom_subset (a1, vs));
              add_one acc v1 (One_var.Dom_superset (a1, vs))
          | Cmp.Ne -> add_one acc v1 (One_var.Dom_disjoint (a1, Value_set.singleton c)))
      | _ -> (
          match setop_of_cmp op with
          | Some setop -> continue_with_setop setop
          | None -> fail "ordering comparison between value sets is not supported"))
  | _ -> fail "expected set operator or comparison after %s.%s"
           (match v1 with S -> "S" | T -> "T")
           a1.Attr.name

(* [v in S.A]: value membership, i.e. Dom_superset with a singleton *)
let membership_atom st acc v =
  match peek st with
  | Some (IDENT "in") -> (
      advance st;
      match peek st with
      | Some (IDENT name) when var_of_string name <> None ->
          advance st;
          let var = Option.get (var_of_string name) in
          let a = dotted_attr st in
          add_one acc var (One_var.Dom_superset (a, Value_set.singleton v))
      | _ -> fail "expected S or T after 'in'")
  | _ -> fail "expected 'in' after a leading value"

let atom st acc =
  match peek st with
  | Some BAR ->
      advance st;
      card_atom st acc
  | Some (NUMBER v) ->
      advance st;
      membership_atom st acc v
  | Some (IDENT "freq") ->
      advance st;
      freq_atom st acc
  | Some (IDENT name) when Agg.of_string name <> None ->
      advance st;
      agg_atom st acc name
  | Some (IDENT name) -> (
      advance st;
      match var_of_string name with
      | Some v -> dom_atom st acc v
      | None -> fail "unknown atom starting with %S" name)
  | _ -> fail "expected an atom"

let parse ?(defaults = Query.make ()) text =
  let st = { toks = lex text; pos = 0 } in
  let acc =
    {
      s_minsup = defaults.Query.s_minsup;
      t_minsup = defaults.Query.t_minsup;
      s_cs = List.rev defaults.Query.s_constraints;
      t_cs = List.rev defaults.Query.t_constraints;
      two = List.rev defaults.Query.two_var;
    }
  in
  (* optional {(S,T) | ...} wrapper *)
  (match (peek st, st.pos + 6 <= Array.length st.toks) with
  | Some LBRACE, true -> begin
      match
        ( st.toks.(st.pos + 1),
          st.toks.(st.pos + 2),
          st.toks.(st.pos + 3),
          st.toks.(st.pos + 4),
          st.toks.(st.pos + 5) )
      with
      | LPAREN, IDENT sv, COMMA, IDENT tv, RPAREN
        when var_of_string sv = Some S && var_of_string tv = Some T ->
          st.pos <- st.pos + 6;
          expect st BAR "'|'"
      | _ -> ()
    end
  | _ -> ());
  let rec atoms () =
    atom st acc;
    match peek st with
    | Some AMP ->
        advance st;
        atoms ()
    | _ -> ()
  in
  atoms ();
  (match peek st with
  | Some RBRACE -> advance st
  | _ -> ());
  (match peek st with
  | None -> ()
  | Some _ -> fail "trailing input after query");
  Query.make ~s_minsup:acc.s_minsup ~t_minsup:acc.t_minsup
    ~s_constraints:(List.rev acc.s_cs) ~t_constraints:(List.rev acc.t_cs)
    ~two_var:(List.rev acc.two)
    ?max_level:defaults.Query.max_level ()

let parse_result ?defaults text =
  match parse ?defaults text with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
