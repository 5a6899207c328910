(* Tokenizer for the middleware SQL dialect.  Keywords are not reserved
   at the lexer level; the parser matches identifiers case-insensitively
   where it expects a keyword. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

exception Lex_error of string * int (* message, offset *)

let token_to_string = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> "'" ^ s ^ "'"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | EOF -> "<eof>"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The value of the numeric literal [text] that starts at byte [at]. *)
let number of_string text at =
  match of_string text with
  | Some v -> v
  | None -> raise (Lex_error (Printf.sprintf "malformed number %S" text, at))

let tokenize (s : string) : token array =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  let peek k = if !i + k < n then Some s.[!i + k] else None in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then (
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      push (IDENT (String.sub s start (!i - start))))
    else if is_digit c then (
      let start = !i in
      let is_hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if is_hex then (
        i := !i + 2;
        while
          !i < n
          && (is_hex_digit s.[!i] || s.[!i] = '.' || s.[!i] = 'p'
             || s.[!i] = 'P'
             || ((s.[!i] = '+' || s.[!i] = '-')
                && (s.[!i - 1] = 'p' || s.[!i - 1] = 'P')))
        do
          incr i
        done;
        push (FLOAT (number float_of_string_opt (String.sub s start (!i - start)) start)))
      else (
        let saw_dot = ref false and saw_exp = ref false in
        while
          !i < n
          && (is_digit s.[!i]
             || (s.[!i] = '.' && not !saw_dot && not !saw_exp)
             || ((s.[!i] = 'e' || s.[!i] = 'E') && not !saw_exp)
             || ((s.[!i] = '+' || s.[!i] = '-')
                && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E')))
        do
          if s.[!i] = '.' then saw_dot := true;
          if s.[!i] = 'e' || s.[!i] = 'E' then saw_exp := true;
          incr i
        done;
        let text = String.sub s start (!i - start) in
        if !saw_dot || !saw_exp then push (FLOAT (number float_of_string_opt text start))
        else push (INT (number int_of_string_opt text start))))
    else if c = '\'' then (
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then raise (Lex_error ("unterminated string literal", !i));
        if s.[!i] = '\'' then
          if peek 1 = Some '\'' then (
            Buffer.add_char buf '\'';
            i := !i + 2)
          else (
            closed := true;
            incr i)
        else (
          Buffer.add_char buf s.[!i];
          incr i)
      done;
      push (STRING (Buffer.contents buf)))
    else (
      (match c with
      | '(' -> push LPAREN
      | ')' -> push RPAREN
      | ',' -> push COMMA
      | '.' -> push DOT
      | '=' -> push EQ
      | '+' -> push PLUS
      | '-' -> push MINUS
      | '*' -> push STAR
      | '/' -> push SLASH
      | '<' ->
          if peek 1 = Some '=' then (
            push LE;
            incr i)
          else if peek 1 = Some '>' then (
            push NEQ;
            incr i)
          else push LT
      | '>' ->
          if peek 1 = Some '=' then (
            push GE;
            incr i)
          else push GT
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !i)));
      incr i)
  done;
  push EOF;
  Array.of_list (List.rev !toks)
