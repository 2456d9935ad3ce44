exception Overflow

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let mul_checked a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

let lcm a b = if a = 0 || b = 0 then 0 else mul_checked (a / gcd a b) b

let lcm_list xs = List.fold_left lcm 1 xs

let gcd_list xs = List.fold_left gcd 0 xs

let ceil_div a b =
  assert (a >= 0 && b > 0);
  (a + b - 1) / b

let pow2_floor n =
  assert (n >= 1);
  let rec go p = if p * 2 > n || p * 2 <= 0 then p else go (p * 2) in
  go 1

let sum xs =
  List.fold_left
    (fun acc x ->
      let s = acc + x in
      if acc >= 0 && x >= 0 && s < 0 then raise Overflow else s)
    0 xs

let add_decimal b n =
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  if n = min_int then Buffer.add_string b (string_of_int n)
  else if n < 0 then begin
    Buffer.add_char b '-';
    digits (-n)
  end
  else digits n
