type profile = {
  name : string;
  ram_bytes : int;
  link_bytes_per_s : float;
  apdu_payload : int;
  apdu_overhead_bytes : int;
  aes_block_us : float;
  sha_block_us : float;
  event_us : float;
  token_us : float;
  rsa_op_ms : float;
  compile_state_us : float;
}

let egate =
  {
    name = "e-gate";
    ram_bytes = 1024;
    link_bytes_per_s = 2048.0;
    apdu_payload = 255;
    apdu_overhead_bytes = 10;
    aes_block_us = 40.0;
    sha_block_us = 60.0;
    event_us = 6.0;
    token_us = 1.5;
    rsa_op_ms = 120.0;
    compile_state_us = 45.0;
  }

let modern =
  {
    name = "modern-se";
    ram_bytes = 16 * 1024;
    link_bytes_per_s = 400_000.0;
    apdu_payload = 4096;
    apdu_overhead_bytes = 12;
    aes_block_us = 0.8;
    sha_block_us = 1.2;
    event_us = 0.5;
    token_us = 0.1;
    rsa_op_ms = 8.0;
    compile_state_us = 1.5;
  }

let fleet =
  {
    name = "fleet-se";
    ram_bytes = 64 * 1024;
    link_bytes_per_s = 1_000_000.0;
    apdu_payload = 4096;
    apdu_overhead_bytes = 12;
    aes_block_us = 0.8;
    sha_block_us = 1.2;
    event_us = 0.5;
    token_us = 0.1;
    rsa_op_ms = 8.0;
    compile_state_us = 1.5;
  }

type meter = {
  prof : profile;
  mutable transfer_us : float;
  mutable aes_us : float;
  mutable sha_us : float;
  mutable cpu_us : float;
  mutable rsa_us : float;
  mutable compile_us : float;
  mutable bytes_transferred : int;
  mutable bytes_decrypted : int;
  mutable apdu_frames : int;
}

let meter prof =
  {
    prof;
    transfer_us = 0.0;
    aes_us = 0.0;
    sha_us = 0.0;
    cpu_us = 0.0;
    rsa_us = 0.0;
    compile_us = 0.0;
    bytes_transferred = 0;
    bytes_decrypted = 0;
    apdu_frames = 0;
  }

let transfer_cost prof ~bytes =
  if bytes <= 0 then (0.0, 0)
  else begin
    let frames = (bytes + prof.apdu_payload - 1) / prof.apdu_payload in
    let wire = bytes + (frames * prof.apdu_overhead_bytes) in
    (1.0e3 *. float_of_int wire /. prof.link_bytes_per_s, frames)
  end

let charge_transfer m ~bytes =
  if bytes < 0 then invalid_arg "Cost.charge_transfer";
  if bytes > 0 then begin
    let ms, frames = transfer_cost m.prof ~bytes in
    m.apdu_frames <- m.apdu_frames + frames;
    m.bytes_transferred <- m.bytes_transferred + bytes;
    m.transfer_us <- m.transfer_us +. (1000.0 *. ms)
  end

let charge_decrypt m ~bytes =
  if bytes < 0 then invalid_arg "Cost.charge_decrypt";
  let blocks = (bytes + 15) / 16 in
  m.bytes_decrypted <- m.bytes_decrypted + bytes;
  m.aes_us <- m.aes_us +. (float_of_int blocks *. m.prof.aes_block_us)

let charge_hash m ~bytes =
  if bytes < 0 then invalid_arg "Cost.charge_hash";
  let blocks = (bytes + 63) / 64 in
  m.sha_us <- m.sha_us +. (float_of_int blocks *. m.prof.sha_block_us)

let charge_events m ~events ~tokens =
  m.cpu_us <-
    m.cpu_us
    +. (float_of_int events *. m.prof.event_us)
    +. (float_of_int tokens *. m.prof.token_us)

let charge_rsa m ~ops = m.rsa_us <- m.rsa_us +. (float_of_int ops *. m.prof.rsa_op_ms *. 1000.0)

let charge_compile m ~states =
  if states < 0 then invalid_arg "Cost.charge_compile";
  m.compile_us <-
    m.compile_us +. (float_of_int states *. m.prof.compile_state_us)

type breakdown = {
  transfer_ms : float;
  crypto_ms : float;
  cpu_ms : float;
  rsa_ms : float;
  compile_ms : float;
  total_ms : float;
  bytes_transferred : int;
  bytes_decrypted : int;
  apdu_frames : int;
}

let read m =
  let transfer_ms = m.transfer_us /. 1000.0 in
  let crypto_ms = (m.aes_us +. m.sha_us) /. 1000.0 in
  let cpu_ms = m.cpu_us /. 1000.0 in
  let rsa_ms = m.rsa_us /. 1000.0 in
  let compile_ms = m.compile_us /. 1000.0 in
  {
    transfer_ms;
    crypto_ms;
    cpu_ms;
    rsa_ms;
    compile_ms;
    total_ms = transfer_ms +. crypto_ms +. cpu_ms +. rsa_ms +. compile_ms;
    bytes_transferred = m.bytes_transferred;
    bytes_decrypted = m.bytes_decrypted;
    apdu_frames = m.apdu_frames;
  }
