//! attach-plane: the operator's view of one shared attach plane.
//!
//! A fleet of live sessions, spread evenly over the four engines of
//! `ContainerRuntime::matrix`, each forwarding a socket to a service in
//! the fat container. One iteration is a stream round — every lane sends
//! a seeded 2–6 KiB message, the plane is pumped until quiet, the service
//! drains every connection — followed by one churn cycle of a further
//! session: `run` → `attach` → `forward_socket` → `detach` → `stop`.
//! Building the fleet is set-up. No file data moves.

use crate::measure::Tracer;
use crate::probe::Probe;
use crate::rng::Rng;
use crate::runner::{Extras, Kind, Sizes, Workload};
use crate::world::{app_image, fat_image, fat_tools};
use cntr_core::{AttachSession, Cntr, EventLoop};
use cntr_engine::runtime::boot_host;
use cntr_engine::{Container, ContainerRuntime, Registry};
use cntr_kernel::Kernel;
use cntr_types::{Pid, SimClock};
use std::sync::Arc;

/// The service the lanes reach, bound inside the fat container.
const SERVICE: &str = "/run/svc.sock";
/// Where each session's forwarded socket appears to its application.
const APP_SOCKET: &str = "/tmp/app.sock";
/// The churned session's forwarded socket.
const CHURN_SOCKET: &str = "/tmp/churn.sock";
/// Seeded message bytes are cut from this pool.
const POOL: usize = 1 << 16;
const MIN_MSG: u64 = 2048;
const MAX_MSG: u64 = 6144;

/// One forwarded connection: the app's client end and the service's end.
struct Lane {
    app: Pid,
    client: u32,
    conn: u32,
}

pub struct Plane {
    kernel: Kernel,
    runtimes: Vec<ContainerRuntime>,
    cntr: Cntr,
    plane: Arc<EventLoop>,
    fat: Container,
    svc: u32,
    sessions: Vec<AttachSession>,
    lanes: Vec<Lane>,
    rng: Rng,
    pool: Vec<u8>,
    /// `(offset, length)` into the pool of each lane's message this round.
    msgs: Vec<(usize, usize)>,
    /// What the service received from each lane this round.
    got: Vec<Vec<u8>>,
    buf: Vec<u8>,
    churned: u64,
}

fn e(what: &str, err: cntr_types::Errno) -> String {
    format!("{what}: {err:?}")
}

impl Plane {
    /// Reads everything queued on `fd` as the service.
    fn drain(&mut self, fd: u32, out: &mut Vec<u8>) -> Result<(), String> {
        loop {
            match self.kernel.read_fd(self.fat.pid, fd, &mut self.buf) {
                Ok(0) => return Err("service connection closed".to_string()),
                Ok(n) => out.extend_from_slice(&self.buf[..n]),
                Err(cntr_types::Errno::EAGAIN) => return Ok(()),
                Err(err) => return Err(e("service read", err)),
            }
        }
    }

    /// Writes all of `data` as the app, pumping the plane on backpressure.
    fn send(&self, lane: usize, data: &[u8]) -> Result<(), String> {
        let Lane { app, client, .. } = self.lanes[lane];
        let mut sent = 0;
        while sent < data.len() {
            match self.kernel.write_fd(app, client, &data[sent..]) {
                Ok(n) => sent += n,
                Err(cntr_types::Errno::EAGAIN) => {
                    self.plane
                        .pump_until_quiet()
                        .map_err(|err| e("pump", err))?;
                }
                Err(err) => return Err(e("app write", err)),
            }
        }
        Ok(())
    }

    fn stream_round(&mut self, tr: &mut Tracer, x: &mut Extras) -> Result<(), String> {
        tr.bench("bench.gen", || {
            for m in self.msgs.iter_mut() {
                let len = (MIN_MSG + self.rng.below(MAX_MSG - MIN_MSG + 1)) as usize;
                *m = (self.rng.below((POOL - len) as u64) as usize, len);
            }
        });
        tr.sys("kernel.socket.write", || {
            (0..self.lanes.len()).try_for_each(|i| {
                let (off, len) = self.msgs[i];
                self.send(i, &self.pool[off..off + len])
            })
        })?;
        let mut took = tr.last_ns();
        let plane = Arc::clone(&self.plane);
        tr.sys("core.pump", || plane.pump_until_quiet())
            .map_err(|err| e("pump", err))?;
        took += tr.last_ns();
        let mut got = std::mem::take(&mut self.got);
        tr.sys("kernel.socket.read", || {
            got.iter_mut().enumerate().try_for_each(|(i, out)| {
                out.clear();
                self.drain(self.lanes[i].conn, out)
            })
        })?;
        took += tr.last_ns();
        x.stream_bytes += got.iter().map(|g| g.len() as u64).sum::<u64>();
        x.stream_ns += took;
        let checked = tr.bench("bench.check", || {
            for (i, data) in got.iter().enumerate() {
                let (off, len) = self.msgs[i];
                if data[..] != self.pool[off..off + len] {
                    return Err(format!(
                        "lane {i}: received {} bytes, expected {len}",
                        data.len()
                    ));
                }
            }
            Ok(())
        });
        self.got = got;
        checked
    }

    fn churn(&mut self, tr: &mut Tracer, x: &mut Extras) -> Result<(), String> {
        let name = format!("churn{}", self.churned);
        let rt = &self.runtimes[self.churned as usize % self.runtimes.len()];
        self.churned += 1;
        let c = tr
            .sys("engine.run", || rt.run(&name, "app:slim"))
            .map_err(|err| e("run", err))?;
        x.start.record(tr.last_ns());
        let tools = fat_tools(&self.fat);
        let session = tr
            .sys("core.attach", || self.cntr.attach(c.pid, tools))
            .map_err(|err| e("attach", err))?;
        x.attach.record(tr.last_ns());
        tr.sys("core.forward", || {
            session.forward_socket(&format!("/var/lib/cntr{CHURN_SOCKET}"), SERVICE)
        })
        .map_err(|err| e("forward", err))?;
        let k = &self.kernel;
        tr.bench("bench.check", || match k.stat(c.pid, CHURN_SOCKET) {
            Ok(st) if st.ftype == cntr_types::FileType::Socket => Ok(()),
            other => Err(format!("forwarded socket missing in the app: {other:?}")),
        })?;
        tr.sys("core.detach", || session.detach())
            .map_err(|err| e("detach", err))?;
        let detach = tr.last_ns();
        tr.sys("engine.stop", || rt.stop(&name))
            .map_err(|err| e("stop", err))?;
        x.teardown.record(detach + tr.last_ns());
        Ok(())
    }
}

impl Workload for Plane {
    type Inputs = ();
    const OPS_PER_S: u64 = 40;

    fn inputs(_seed: u64, _sizes: &Sizes) {}

    fn setup(_inputs: &(), seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let kernel = boot_host(SimClock::new());
        let registry = Registry::new();
        registry.push(fat_image().build());
        registry.push(app_image().build());
        let runtimes = ContainerRuntime::matrix(kernel.clone(), registry);
        let fat = runtimes[0]
            .run("toolbox", "tools:fat")
            .map_err(|err| e("run toolbox", err))?;
        let svc = kernel
            .bind_listener(fat.pid, SERVICE)
            .map_err(|err| e("bind service", err))?;
        let cntr = Cntr::new(kernel.clone());
        let mut sessions = Vec::with_capacity(sizes.sessions);
        let mut clients = Vec::with_capacity(sizes.sessions);
        for i in 0..sizes.sessions {
            let rt = &runtimes[i % runtimes.len()];
            let c = rt
                .run(&format!("c{i}"), "app:slim")
                .map_err(|err| e("run", err))?;
            let session = cntr
                .attach(c.pid, fat_tools(&fat))
                .map_err(|err| e("attach", err))?;
            session
                .forward_socket(&format!("/var/lib/cntr{APP_SOCKET}"), SERVICE)
                .map_err(|err| e("forward", err))?;
            let client = kernel
                .connect(c.pid, APP_SOCKET)
                .map_err(|err| e("connect", err))?;
            // Each lane names itself so the service can pair connections
            // with lanes whatever order the plane dials them in.
            kernel
                .write_fd(c.pid, client, &(i as u32).to_le_bytes())
                .map_err(|err| e("hello", err))?;
            clients.push((c.pid, client));
            sessions.push(session);
        }
        let plane = cntr.plane().map_err(|err| e("plane", err))?;
        plane.pump_until_quiet().map_err(|err| e("pump", err))?;
        let mut conns = vec![None; sizes.sessions];
        for _ in 0..sizes.sessions {
            let conn = kernel
                .accept(fat.pid, svc)
                .map_err(|err| e("accept", err))?;
            let mut hello = [0u8; 4];
            let n = kernel
                .read_fd(fat.pid, conn, &mut hello)
                .map_err(|err| e("hello", err))?;
            let lane = u32::from_le_bytes(hello) as usize;
            if n != 4 || lane >= conns.len() || conns[lane].is_some() {
                return Err(format!("bad hello {hello:?} from a forwarded connection"));
            }
            conns[lane] = Some(conn);
        }
        let lanes = clients
            .into_iter()
            .zip(conns)
            .map(|((app, client), conn)| Lane {
                app,
                client,
                conn: conn.expect("every lane said hello"),
            })
            .collect();
        let mut pool = vec![0u8; POOL];
        let mut rng = Rng::derive(seed, 50);
        rng.fill(&mut pool);
        Ok(Plane {
            kernel,
            runtimes,
            cntr,
            plane,
            fat,
            svc,
            sessions,
            lanes,
            rng,
            pool,
            msgs: vec![(0, 0); sizes.sessions],
            got: vec![Vec::with_capacity(MAX_MSG as usize); sizes.sessions],
            buf: vec![0u8; 1 << 16],
            churned: 0,
        })
    }

    fn epoch_ops(&self) -> u64 {
        1
    }

    fn op(&mut self, tr: &mut Tracer, x: &mut Extras) -> Result<Kind, String> {
        self.stream_round(tr, x)?;
        self.churn(tr, x)?;
        Ok(Kind::Tools)
    }

    fn probe(&self) -> Probe {
        let live: usize = self.sessions.iter().map(|s| s.server.live_inodes()).sum();
        Probe::take(
            &self.kernel,
            self.runtimes[0].blob_store(),
            live as u64,
            self.plane.endpoints() as u64,
        )
    }

    fn teardown(self) -> Result<(), String> {
        // Newest first, as an operator winding the fleet down would.
        let _ = self.kernel.close(self.fat.pid, self.svc);
        for (i, (session, lane)) in self.sessions.into_iter().zip(self.lanes).enumerate().rev() {
            let _ = self.kernel.close(lane.app, lane.client);
            let _ = self.kernel.close(self.fat.pid, lane.conn);
            session.detach().map_err(|err| e("detach", err))?;
            self.runtimes[i % self.runtimes.len()]
                .stop(&format!("c{i}"))
                .map_err(|err| e("stop", err))?;
        }
        self.runtimes[0]
            .stop("toolbox")
            .map_err(|err| e("stop toolbox", err))
    }
}
