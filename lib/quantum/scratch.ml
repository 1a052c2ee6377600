let retain_max = 1 lsl 14

type 'a t = { mutable kept : 'a array; init : 'a }

let make init = { kept = [||]; init }

let get b n =
  if n <= Array.length b.kept then b.kept
  else begin
    let a = Array.make n b.init in
    if n <= retain_max then b.kept <- a;
    a
  end

let grow b a len =
  let bigger = get b (max 16 (2 * Array.length a)) in
  Array.blit a 0 bigger 0 len;
  bigger

let clear b n = Array.fill b.kept 0 (min n (Array.length b.kept)) b.init

type bytes = { mutable kept_bytes : Bytes.t }

let bytes () = { kept_bytes = Bytes.empty }

let get_bytes b n =
  if n <= Bytes.length b.kept_bytes then b.kept_bytes
  else begin
    let s = Bytes.create n in
    if n <= 8 * retain_max then b.kept_bytes <- s;
    s
  end
