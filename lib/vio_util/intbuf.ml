type t = { mutable buf : int array; mutable len : int }

let create () = { buf = Array.make 16 0; len = 0 }

let push b x =
  if b.len = Array.length b.buf then begin
    let buf = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 buf 0 b.len;
    b.buf <- buf
  end;
  b.buf.(b.len) <- x;
  b.len <- b.len + 1
