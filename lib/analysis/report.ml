module Q = Rational

type 'v outcome = Finite of 'v | Divergent

type bound = Q.t outcome

type task_result = {
  offset : Q.t;
  jitter : Q.t;
  rbest : Q.t;
  response : bound;
}

type iteration = { jitters : Q.t array array; responses : bound array array }

type t = {
  results : task_result array array;
  history : iteration list;
  outer_iterations : int;
  converged : bool;
  schedulable : bool;
}

let bound_le b x = match b with Divergent -> false | Finite r -> Q.(r <= x)

let bound_max a b =
  match (a, b) with
  | Divergent, _ | _, Divergent -> Divergent
  | Finite x, Finite y -> Finite (Q.max x y)

let bound_add b x =
  match b with Divergent -> Divergent | Finite r -> Finite Q.(r + x)

let equal_bound a b =
  match (a, b) with
  | Divergent, Divergent -> true
  | Finite x, Finite y -> Q.equal x y
  | Divergent, Finite _ | Finite _, Divergent -> false

let pp_bound ppf = function
  | Divergent -> Format.pp_print_string ppf "∞"
  | Finite r -> Q.pp_decimal ppf r

let task_response t a b = t.results.(a).(b).response

let transaction_response t a =
  let row = t.results.(a) in
  row.(Array.length row - 1).response

let pp ~names ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-28s %10s %10s %10s %10s@ " "task" "phi" "J" "Rbest" "R";
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b r ->
          Format.fprintf ppf "%-28s %10s %10s %10s %10s@ " (names a b)
            (Format.asprintf "%a" Q.pp_decimal r.offset)
            (Format.asprintf "%a" Q.pp_decimal r.jitter)
            (Format.asprintf "%a" Q.pp_decimal r.rbest)
            (Format.asprintf "%a" pp_bound r.response))
        row)
    t.results;
  Format.fprintf ppf "schedulable: %b (outer iterations: %d, converged: %b)@]"
    t.schedulable t.outer_iterations t.converged

let pp_history ~names ~txn ppf t =
  let iterations = Array.of_list t.history in
  let n_iter = Array.length iterations in
  if n_iter = 0 then Format.fprintf ppf "(no iterations)"
  else begin
    let n_tasks = Array.length iterations.(0).jitters.(txn) in
    Format.fprintf ppf "@[<v>%-28s" "task";
    for n = 0 to n_iter - 1 do
      Format.fprintf ppf " %8s %8s"
        (Printf.sprintf "J(%d)" n)
        (Printf.sprintf "R(%d)" n)
    done;
    Format.fprintf ppf "@ ";
    for b = 0 to n_tasks - 1 do
      Format.fprintf ppf "%-28s" (names txn b);
      for n = 0 to n_iter - 1 do
        let it = iterations.(n) in
        Format.fprintf ppf " %8s %8s"
          (Format.asprintf "%a" Q.pp_decimal it.jitters.(txn).(b))
          (Format.asprintf "%a" pp_bound it.responses.(txn).(b))
      done;
      Format.fprintf ppf "@ "
    done;
    Format.fprintf ppf "@]"
  end
